"""Generated `so5-forms` problem: so(5) acting on R^5 by its defining
representation, conjugated by a seed-chosen unimodular integer matrix.

The algebra is given by inline structure constants in the basis
E_ij = e_i e_j^T - e_j e_i^T (i < j, lexicographic order e1..e10).  Basis
element E acts by the linear vector field x -> (P E P^-1) x.  P has
determinant +-1, so every field is trace-free and preserves the volume form,
and the seed cannot change the answers (Betti numbers, kernel dimensions and
route verdicts are invariants of so(5)).

P = Q S: S = I + E_12 + E_23 + E_34 (elementary matrices) is fixed and
spreads each generator over several coordinates; Q is a signed permutation
drawn from the seed.  Q only relabels coordinates and flips signs, so the
ten fields always have FIELD_TERMS terms in total and the form calculus does
the same amount of work for every seed.  (Random shears with an equal term
count still changed the number of wedge output terms by +-15% from seed to
seed, which is more than the benchmark's bounds.)
"""

import random

N = 5
DEFAULT_SEED = 1
FIELD_TERMS = 65
BASIS = [(i, j) for i in range(N) for j in range(i + 1, N)]
SHEAR = [[1, 1, 0, 0, 0],
         [0, 1, 1, 0, 0],
         [0, 0, 1, 1, 0],
         [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1]]
SHEAR_INV = [[1, -1, 1, -1, 0],
             [0, 1, -1, 1, 0],
             [0, 0, 1, -1, 0],
             [0, 0, 0, 1, 0],
             [0, 0, 0, 0, 1]]


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(N)) for j in range(N)]
            for i in range(N)]


def _generator(i, j):
    m = [[0] * N for _ in range(N)]
    m[i][j], m[j][i] = 1, -1
    return m


def _join(terms):
    """'c1*b1 + c2*b2 ...' over the nonzero integer coefficients."""
    out = []
    for coef, basis in terms:
        if coef:
            mag = "" if abs(coef) == 1 else f"{abs(coef)}*"
            out.append(("-" if coef < 0 else "+", f"{mag}{basis}"))
    if not out:
        return "0"
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    return text + "".join(f" {s} {t}" for s, t in out[1:])


def _bracket_lines():
    """Structure constants [E_a, E_b] from matrix commutators."""
    mats = [_generator(i, j) for i, j in BASIS]
    lines = []
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            ab, ba = _mul(mats[a], mats[b]), _mul(mats[b], mats[a])
            text = _join((ab[i][j] - ba[i][j], f"e{c + 1}")
                         for c, (i, j) in enumerate(BASIS))
            if text != "0":
                lines.append(f"[e{a + 1},e{b + 1}] = {text}")
    return lines


def _conjugator(rng):
    """(P, P^-1) with P = Q S, Q a signed permutation drawn from rng."""
    perm = list(range(N))
    rng.shuffle(perm)
    q, qinv = [[0] * N for _ in range(N)], [[0] * N for _ in range(N)]
    for i, j in enumerate(perm):
        q[i][j] = qinv[j][i] = rng.choice((1, -1))
    return _mul(q, SHEAR), _mul(SHEAR_INV, qinv)


def _field(m):
    """Linear vector field x -> m x as problem-file text."""
    return _join((m[i][j], f"x{j + 1}*d/dx{i + 1}") for i in range(N) for j in range(N))


def generate(seed=DEFAULT_SEED):
    """(problem text, info) for one seed; info holds the seed and term count."""
    p, pinv = _conjugator(random.Random(seed))
    mats = [_mul(_mul(p, _generator(i, j)), pinv) for i, j in BASIS]
    terms = sum(1 for m in mats for row in m for x in row if x)
    if terms != FIELD_TERMS:
        raise ValueError(f"generated fields have {terms} terms, not {FIELD_TERMS}")
    lines = [f"# so(5) on R^5, generated from seed {seed}; {terms} field terms",
             "", "[algebra]", f"dim = {len(BASIS)}"]
    lines += _bracket_lines()
    lines += ["", "[action]", f"dim = {N}"]
    lines += [f"V{c + 1} = {_field(m)}" for c, m in enumerate(mats)]
    lines += ["", "[omega]", "omega = dx(1,2,3,4,5)", "",
              "[options]", "max_poly_degree = 0"]
    return "\n".join(lines) + "\n", {"seed": seed, "field_terms": terms}
