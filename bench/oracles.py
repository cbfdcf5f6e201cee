"""Independent oracles the benchmark checks govgame's outputs against.

Nothing here imports govgame. Every value is an exact Fraction and the
linear algebra is this module's own, so an error in the package cannot
hide by being repeated here.

- extreme_equilibria: every extreme Nash equilibrium of a bimatrix game,
  degenerate or not, by exhaustive enumeration of the completely labelled
  vertex pairs of the two best-response polytopes (payoffs scaled to
  integers and shifted positive, which leaves the equilibria unchanged).
- governance_equilibria: the closed form of the separable 2x2 voting game.
- predict: the surplus and prediction rules as the README and the
  governance docstrings state them.

Run ``python3 bench/oracles.py`` to check the oracles on hand-solved cases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

F = Fraction
HALF = F(1, 2)


def _solve_square(matrix: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve an integer square system exactly; None when it is singular.

    Fraction-free (Bareiss) elimination keeps every intermediate an
    integer; only the back substitution forms Fractions.
    """
    size = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        for r in range(col + 1, size):
            factor = aug[r][col]
            aug[r] = [(a * lead - factor * b) // prev for a, b in zip(aug[r], aug[col])]
        prev = lead
    solution = [F(0)] * size
    for r in reversed(range(size)):
        rest = sum(aug[r][c] * solution[c] for c in range(r + 1, size))
        solution[r] = (aug[r][size] - rest) / F(aug[r][r])
    return solution


def _vertices(coeffs: list[list[int]]) -> dict[tuple[Fraction, ...], frozenset[int]]:
    """Vertices of {z >= 0 : coeffs z <= 1} with their full label sets.

    coeffs is r x d with positive integer entries, so the polytope is bounded.
    Label i < d marks z_i = 0 and label d + t marks row t tight. A vertex
    is found from every basis of d independent tight constraints: the
    zero coordinates outside a support S and |S| tight rows T whose
    square block coeffs[T][S] is nonsingular.
    """
    r, d = len(coeffs), len(coeffs[0])
    found: dict[tuple[Fraction, ...], frozenset[int]] = {}
    for k in range(0, min(r, d) + 1):
        for support in combinations(range(d), k):
            for tight in combinations(range(r), k):
                block = [[coeffs[t][s] for s in support] for t in tight]
                values = _solve_square(block, [1] * k) if k else []
                if values is None or any(v < 0 for v in values):
                    continue
                z = [F(0)] * d
                for s, v in zip(support, values):
                    z[s] = v
                point = tuple(z)
                if point in found:
                    continue
                rows = [sum(c * x for c, x in zip(row, z)) for row in coeffs]
                if any(v > 1 for v in rows):
                    continue
                labels = {i for i in range(d) if z[i] == 0}
                labels.update(d + t for t in range(r) if rows[t] == 1)
                found[point] = frozenset(labels)
    return found


def _positive_integers(matrix: list[list[Fraction]]) -> list[list[int]]:
    """Scale to integers and shift to entries >= 1; equilibria are unchanged."""
    scale = 1
    for row in matrix:
        for v in row:
            scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [[int(v * scale) for v in row] for row in matrix]
    low = min(min(row) for row in ints)
    return [[v - low + 1 for v in row] for row in ints]


def _best_response_polytopes(payoff1, payoff2):
    """Vertex label maps of P (player 1) and Q (player 2), labels 0..m+n-1.

    Labels 0..m-1 are player 1's pure strategies, m..m+n-1 player 2's.
    """
    a = _positive_integers([[F(v) for v in row] for row in payoff1])
    b = _positive_integers([[F(v) for v in row] for row in payoff2])
    m, n = len(a), len(a[0])
    # P: x >= 0, B^T x <= 1. Its own labels are already 0..m-1 (x_i = 0)
    # and m..m+n-1 (column j a best response).
    p = _vertices([[b[i][j] for i in range(m)] for j in range(n)])
    # Q: y >= 0, A y <= 1. Relabel: y_j = 0 is m + j, row i tight is i.
    q_raw = _vertices(a)
    q = {
        point: frozenset(m + lab if lab < n else lab - n for lab in labels)
        for point, labels in q_raw.items()
    }
    return p, q, m, n


def _normalise(point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    total = sum(point)
    return tuple(v / total for v in point)


def extreme_equilibria(payoff1, payoff2):
    """Every extreme Nash equilibrium, and whether the game is nondegenerate.

    Returns (set of (row mix, column mix) pairs, nondegenerate). A game is
    nondegenerate when no mixed strategy with support size k has more
    than k pure best responses; equivalently, every vertex of each
    best-response polytope has exactly as many labels as dimensions.
    """
    p, q, m, n = _best_response_polytopes(payoff1, payoff2)
    everything = frozenset(range(m + n))
    out = set()
    for x, x_labels in p.items():
        if not any(x):
            continue
        for y, y_labels in q.items():
            if any(y) and x_labels | y_labels == everything:
                out.add((_normalise(x), _normalise(y)))
    nondegenerate = all(len(v) == m for v in p.values()) and all(len(v) == n for v in q.values())
    return out, nondegenerate


def payoffs(payoff1, payoff2, x, y) -> tuple[Fraction, Fraction]:
    """Exact expected payoffs of both players under the mixed profile (x, y)."""
    u1 = sum(F(payoff1[i][j]) * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))
    u2 = sum(F(payoff2[i][j]) * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))
    return u1, u2


def is_nash(payoff1, payoff2, x, y) -> bool:
    """Whether (x, y) is a probability profile no player gains by leaving."""
    if any(v < 0 for v in x) or any(v < 0 for v in y) or sum(x) != 1 or sum(y) != 1:
        return False
    u1, u2 = payoffs(payoff1, payoff2, x, y)
    rows = [sum(F(payoff1[i][j]) * y[j] for j in range(len(y))) for i in range(len(x))]
    cols = [sum(F(payoff2[i][j]) * x[i] for i in range(len(x))) for j in range(len(y))]
    return u1 == max(rows) and u2 == max(cols)


def governance_equilibria(beta, gamma, payoff_v, payoff_c):
    """Extreme equilibria of the separable voting game and its continuum flag.

    Each player's payoff ignores the other's move, so the voters' best set
    follows the sign of beta - 1/2 and the community's that of gamma - 1/2.
    The extreme equilibria are the pure profiles of the product of the two
    best sets, in row-major order (Yes before No, Upgraded before
    Original). Returns (list of (row, col, payoff_v, payoff_c) with row
    and col as 0/1 indices, whether the equilibria form a continuum).
    """
    beta, gamma = F(beta), F(gamma)
    rows = [i for i, wins in ((0, beta >= HALF), (1, beta <= HALF)) if wins]
    cols = [j for j, wins in ((0, gamma >= HALF), (1, gamma <= HALF)) if wins]
    voter = (beta * payoff_v, (1 - beta) * payoff_v)
    community = (gamma * payoff_c, (1 - gamma) * payoff_c)
    eqs = [(i, j, voter[i], community[j]) for i in rows for j in cols]
    return eqs, len(rows) > 1 or len(cols) > 1


def predict(mode: str, beta, gamma, gamma_prime=None, k=1, n=1, s_v=1, s_c=1, tie_break=None) -> dict:
    """Regime, destination chain, fork risk and surplus report.

    Regime: unanimous accept when beta = gamma = 1, a tie at beta = 1/2,
    otherwise majority reject below 1/2 and majority accept above.
    Surpluses: accept regimes give (2 beta - 1) k s_v and (2 gamma - 1) n s_c;
    a tie gives 0 to the voters and the accept value to the community;
    rejections give (1 - 2 beta) k s_v and (1 - 2 gamma) n s_c, except on
    chain, where the voter value keeps its accept orientation and the
    community value is (2 gamma' - 1) n s_c; unanimity gives the full
    masses k s_v and n s_c. s_yes and s_no split k s_v by beta; s_u and
    s_o split n s_c by gamma, or by gamma' after an on-chain rejection.
    Destination and risk: unanimity goes upgraded with no risk; without
    governance the larger community share decides and risk is high; an
    accept goes upgraded, risk present off chain and reduced on chain;
    an off-chain reject goes original with risk present; an on-chain
    reject follows the sign of the total surplus with reduced risk; a
    tie splits 50/50 with the mode's risk unless tie_break forces a side.
    """
    beta, gamma = F(beta), F(gamma)
    gamma_prime = None if gamma_prime is None else F(gamma_prime)
    voter_mass, community_mass = k * F(s_v), n * F(s_c)
    if beta == 1 and gamma == 1:
        regime = "unanimous_accept"
    elif beta == HALF:
        regime = "tie"
    elif beta < HALF:
        regime = "majority_reject"
    else:
        regime = "majority_accept"

    effective = regime
    if regime == "tie" and tie_break is not None and mode != "none":
        effective = "majority_accept" if tie_break == "accept" else "majority_reject"

    on_chain = mode == "on_chain"
    if effective == "unanimous_accept":
        surplus_v, surplus_c = voter_mass, community_mass
    elif effective == "tie":
        surplus_v, surplus_c = F(0), (2 * gamma - 1) * community_mass
    elif effective == "majority_accept":
        surplus_v, surplus_c = (2 * beta - 1) * voter_mass, (2 * gamma - 1) * community_mass
    elif on_chain:
        surplus_v, surplus_c = (2 * beta - 1) * voter_mass, (2 * gamma_prime - 1) * community_mass
    else:
        surplus_v, surplus_c = (1 - 2 * beta) * voter_mass, (1 - 2 * gamma) * community_mass
    share = gamma_prime if effective == "majority_reject" and on_chain else gamma
    total = surplus_v + surplus_c
    surplus = {
        "s_yes": beta * voter_mass,
        "s_no": (1 - beta) * voter_mass,
        "s_u": share * community_mass,
        "s_o": (1 - share) * community_mass,
        "surplus_v": surplus_v,
        "surplus_c": surplus_c,
        "total": total,
    }

    def side(value):
        return "upgraded" if value > 0 else "original" if value < 0 else "split_50_50"

    if regime == "unanimous_accept":
        chain, risk = "upgraded", "none"
    elif mode == "none":
        chain, risk = side(gamma - HALF), "high"
    elif effective == "tie":
        chain, risk = "split_50_50", "reduced" if on_chain else "present"
    elif effective == "majority_accept":
        chain, risk = "upgraded", "reduced" if on_chain else "present"
    elif on_chain:
        chain, risk = side(total), "reduced"
    else:
        chain, risk = "original", "present"
    return {"regime": regime, "majority_chain": chain, "fork_risk": risk, "surplus": surplus}


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"oracle self-check failed: {what}")


def self_check() -> None:
    """Check each oracle on cases solved by hand; raise RuntimeError if one is wrong."""
    pennies, nondegenerate = extreme_equilibria([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    _require(pennies == {((HALF, HALF), (HALF, HALF))}, "matching pennies")
    _require(nondegenerate, "matching pennies is nondegenerate")

    e0, e1 = (F(1), F(0)), (F(0), F(1))
    flat, nondegenerate = extreme_equilibria([[1, 0], [0, 1]], [[1, 1], [1, 1]])
    _require(
        flat == {(e0, e0), (e0, (HALF, HALF)), (e1, e1), (e1, (HALF, HALF))},
        "identity against all-ones has 4 extreme equilibria",
    )
    _require(not nondegenerate, "identity against all-ones is degenerate")

    # Table 1 row 5: beta = gamma = 1/2 makes all four cells equilibria.
    eqs, continuum = governance_equilibria(HALF, HALF, F(1), F(1))
    _require(
        [(i, j) for i, j, _, _ in eqs] == [(0, 0), (0, 1), (1, 0), (1, 1)] and continuum,
        "table 1 row 5 closed form",
    )
    _require(all(pv == HALF and pc == HALF for _, _, pv, pc in eqs), "table 1 row 5 payoffs")
    half_game = [[HALF, HALF], [HALF, HALF]]
    _require(
        extreme_equilibria(half_game, half_game)[0] == {(r, c) for r in (e0, e1) for c in (e0, e1)},
        "table 1 row 5 vertex enumeration",
    )
    # Table 1 row 9: beta = 7/20, gamma = 18/25 has the single cell (No, Upgraded).
    eqs, continuum = governance_equilibria(F(7, 20), F(18, 25), F(1), F(1))
    _require(eqs == [(1, 0, F(13, 20), F(18, 25))] and not continuum, "table 1 row 9")

    dao = predict("off_chain", F(27, 50), F(7, 10))
    _require(dao["regime"] == "majority_accept", "DAO fork regime")
    _require(dao["majority_chain"] == "upgraded" and dao["fork_risk"] == "present", "DAO fork outcome")
    _require(
        (dao["surplus"]["surplus_v"], dao["surplus"]["surplus_c"], dao["surplus"]["total"])
        == (F(2, 25), F(2, 5), F(12, 25)),
        "DAO fork surpluses",
    )
    for mode in ("none", "off_chain", "on_chain"):
        for beta in (F(0), F(1, 5), HALF, F(3, 4), F(1)):
            for gamma in (F(0), F(2, 5), HALF, F(1)):
                out = predict(mode, beta, gamma, F(4, 5), k=3, n=7, s_v=F(2), s_c=F(1, 3))
                s = out["surplus"]
                _require(s["s_yes"] + s["s_no"] == 3 * F(2), "s_yes + s_no = k s_v")
                _require(s["s_u"] + s["s_o"] == 7 * F(1, 3), "s_u + s_o = n s_c")
                _require(s["total"] == s["surplus_v"] + s["surplus_c"], "total = surplus_v + surplus_c")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
