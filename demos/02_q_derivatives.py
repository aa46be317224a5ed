"""Jackson derivative recursion and the ladder operators."""

from qbrion import fixtures, jackson
from qbrion.brion import rs_polynomial
from qbrion.lattice import Polytope


def show(label, poly):
    parts = []
    for u in poly.support():
        c = str(poly.coefficient(u))
        if " " in c:
            c = "(%s)" % c
        parts.append("%s x^%s" % (c, list(u)))
    print("%s: %s" % (label, "  +  ".join(parts) if parts else "0"))


# one variable: the weight polynomial of [0,2] and its q-derivative
seg = Polytope.from_facets(1, [((1,), 0), ((-1,), 2)])
f = rs_polynomial(seg)
show("RS([0,2])", f)
show("d_q RS([0,2])", jackson.jackson_derivative(f, 0))

# derivative recursion: d_q RS = [offset sum]_q RS(derived divisor)
D = jackson.FirstOrthantDivisor.from_polytope(fixtures.load("simplex_p2"))
for axis in (0, 1):
    r = jackson.verify_derivative_identity(D, axis)
    print("simplex axis %d: holds=%s derived offsets=%s"
          % (axis, r["holds"], r["derived_offsets"]))

# ladder: raising and lowering operators move between degrees
print("\nelementary-symmetric family: (1, x_1, .., x_n)")
for n in (1, 2):
    rep = jackson.verify_ladder(n, 4)
    print("ladder n=%d through degree 4: all_ok=%s failures=%s"
          % (n, rep["all_ok"], rep["failures"]))

# iterated derivative at the coordinate-sum maximizer collapses to a scalar
for name in ("segment_5", "hexagon"):
    P = fixtures.load(name)
    res = jackson.leading_term_check(P)
    print("%s: maximizer %s, scalar %s" % (name, res.maximizer, res.value))
