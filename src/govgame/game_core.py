"""Two-player normal-form games with exact equilibrium computation.

Payoffs are rationals and every computation is exact, so the set of
equilibria reported for a game is reproduced bit for bit across runs.
Mixed equilibria are found by first eliminating strictly dominated pure
strategies, round after round, and then enumerating the vertices of the
surviving subgame's two best-response polytopes with integer pivoting
(Avis, Rosenberg, Savani and von Stengel 2010), which yields every
extreme equilibrium of any game, degenerate or not. The elimination is
strict only: a weakly dominated strategy is kept, since it may be played
in an equilibrium, and a game left with a single profile returns it as
its unique, pure equilibrium without a vertex walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import lt

from .errors import ValidationError
from .rationals import parse_json, parse_rational, reject_lone_surrogates

PayoffMatrix = tuple[tuple[Fraction, ...], ...]


def _coerce_matrix(matrix: object, field: str) -> PayoffMatrix:
    if not isinstance(matrix, (list, tuple)) or not matrix:
        raise ValidationError(f"{field} must be a non-empty matrix")
    rows: list[tuple[Fraction, ...]] = []
    width: int | None = None
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)) or not row:
            raise ValidationError(f"{field} row {i} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"{field} row {i} has {len(row)} entries, expected {width}"
            )
        rows.append(
            tuple(parse_rational(v, f"{field}[{i}][{j}]") for j, v in enumerate(row))
        )
    return tuple(rows)


def _coerce_labels(labels: object, count: int, field: str) -> tuple[str, ...]:
    if labels is None:
        prefix = "R" if field == "row_labels" else "C"
        return tuple(f"{prefix}{i + 1}" for i in range(count))
    if not isinstance(labels, (list, tuple)):
        raise ValidationError(f"{field} must be a list of strings")
    out = tuple(labels)
    if any(not isinstance(v, str) for v in out):
        raise ValidationError(f"{field} entries must be strings")
    for label in out:
        reject_lone_surrogates(label, field)
    if len(out) != count:
        raise ValidationError(f"{field} has {len(out)} entries, expected {count}")
    return out


@dataclass(frozen=True)
class BimatrixGame:
    """A two-player game given by one payoff matrix per player.

    Rows index player 1's pure strategies and columns player 2's. The
    two matrices must share the same shape. Entries may be given as
    ints, Fractions, or "p/q" strings and are stored as Fractions.
    """

    payoff1: PayoffMatrix
    payoff2: PayoffMatrix
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        p1 = _coerce_matrix(self.payoff1, "payoff1")
        p2 = _coerce_matrix(self.payoff2, "payoff2")
        if len(p2) != len(p1) or len(p2[0]) != len(p1[0]):
            raise ValidationError("payoff1 and payoff2 must have the same shape")
        object.__setattr__(self, "payoff1", p1)
        object.__setattr__(self, "payoff2", p2)
        object.__setattr__(
            self, "row_labels", _coerce_labels(self.row_labels, len(p1), "row_labels")
        )
        object.__setattr__(
            self, "col_labels", _coerce_labels(self.col_labels, len(p1[0]), "col_labels")
        )

    @classmethod
    def _checked(
        cls,
        payoff1: PayoffMatrix,
        payoff2: PayoffMatrix,
        row_labels: tuple[str, ...],
        col_labels: tuple[str, ...],
    ) -> BimatrixGame:
        """A game from parts that are already valid, without re-checking them.

        Precondition: payoff1 and payoff2 are non-empty tuples of equal-width
        tuples of Fractions, of one shape, and the label tuples hold one str
        per row and one per column. The caller guarantees this; nothing here
        checks it.
        """
        game = object.__new__(cls)
        object.__setattr__(game, "payoff1", payoff1)
        object.__setattr__(game, "payoff2", payoff2)
        object.__setattr__(game, "row_labels", row_labels)
        object.__setattr__(game, "col_labels", col_labels)
        return game

    @property
    def rows(self) -> int:
        return len(self.payoff1)

    @property
    def cols(self) -> int:
        return len(self.payoff1[0])


_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over one player's pure strategies.

    Entries must be non-negative and sum to exactly 1. A pure strategy
    is the degenerate case with probability 1 on a single entry.
    """

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.probs, (list, tuple)) or not self.probs:
            raise ValidationError("probs must be a non-empty sequence")
        probs = tuple(
            p if isinstance(p, Fraction) else parse_rational(p, f"probs[{i}]")
            for i, p in enumerate(self.probs)
        )
        if any(p.numerator < 0 for p in probs):
            raise ValidationError("probabilities must be non-negative")
        # Exact sum in integers: over the common denominator L, the
        # numerators must add up to L.
        common = lcm(*(p.denominator for p in probs))
        if sum(p.numerator * (common // p.denominator) for p in probs) != common:
            raise ValidationError("probabilities must sum to exactly 1")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def pure(cls, index: int, size: int) -> MixedStrategy:
        """The degenerate mix placing probability 1 on one strategy."""
        if not 0 <= index < size:
            raise ValidationError(f"pure strategy index {index} out of range for size {size}")
        return cls((_ZERO,) * index + (_ONE,) + (_ZERO,) * (size - index - 1))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    @property
    def is_pure(self) -> bool:
        return len(self.support) == 1


@dataclass(frozen=True)
class StrategyProfile:
    """One mixed strategy per player."""

    sigma1: MixedStrategy
    sigma2: MixedStrategy


class EquilibriumKind(Enum):
    PURE = "pure"
    MIXED = "mixed"


@dataclass(frozen=True)
class EquilibriumResult:
    """An equilibrium profile with its exact payoffs.

    kind is PURE exactly when both strategies place probability 1 on a
    single pure strategy. degenerate_game is set on every result when
    two of the game's extreme equilibria span a continuum of equilibria;
    the continuum itself is not described, only its vertex equilibria
    are returned.
    """

    profile: StrategyProfile
    payoffs: tuple[Fraction, Fraction]
    kind: EquilibriumKind
    degenerate_game: bool = False


def pure_profile(game: BimatrixGame, row: int, col: int) -> StrategyProfile:
    """The profile placing probability 1 on (row, col)."""
    return StrategyProfile(
        MixedStrategy.pure(row, game.rows), MixedStrategy.pure(col, game.cols)
    )


def _pure_result(game: BimatrixGame, row: int, col: int) -> EquilibriumResult:
    return EquilibriumResult(
        pure_profile(game, row, col),
        (game.payoff1[row][col], game.payoff2[row][col]),
        EquilibriumKind.PURE,
    )


def _is_pure_equilibrium(game: BimatrixGame, row: int, col: int) -> bool:
    if any(game.payoff1[r][col] > game.payoff1[row][col] for r in range(game.rows)):
        return False
    return not any(
        game.payoff2[row][c] > game.payoff2[row][col] for c in range(game.cols)
    )


def enumerate_pure_equilibria(game: BimatrixGame) -> list[EquilibriumResult]:
    """All pure Nash equilibria, in row-major cell order.

    A cell (i, j) qualifies when payoff1[i][j] is maximal in its column
    and payoff2[i][j] is maximal in its row. The degenerate_game flag is
    not computed here; use enumerate_mixed_equilibria for it.
    """
    return [
        _pure_result(game, i, j)
        for i in range(game.rows)
        for j in range(game.cols)
        if _is_pure_equilibrium(game, i, j)
    ]


def _positive_integers(matrix: PayoffMatrix) -> tuple[list[list[int]], int, int]:
    """Scale a payoff matrix to integers and shift every entry to >= 1.

    Returns the integer matrix with its scale and shift: entry v becomes
    v * scale + shift. Both steps are positive affine maps of one
    player's payoffs, so they leave the game's Nash equilibria unchanged.
    Entries >= 1 make the best-response polytope built from the matrix
    bounded.
    """
    scale = lcm(*(v.denominator for row in matrix for v in row))
    ints = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]
    shift = 1 - min(min(row) for row in ints)
    return [[v + shift for v in row] for row in ints], scale, shift


def _survivors(lines: list[list[int]]) -> list[int]:
    """Positions of the lines that no other line beats in every entry."""
    return [
        k
        for k, line in enumerate(lines)
        if not any(all(map(lt, line, other)) for other in lines)
    ]


def _undominated(
    a: list[list[int]], bt: list[list[int]]
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Iterated elimination of strictly dominated pure strategies.

    a holds player 1's payoffs by row and bt player 2's by column. A row
    is dropped when another surviving row pays player 1 strictly more
    against every surviving column, and a column likewise for player 2;
    the two sides alternate until a pass over each drops nothing. Returns
    the surviving row and column indices with a and bt restricted to
    them; when nothing is dropped these are a and bt themselves. Strict
    dominance keeps every Nash equilibrium, and a weakly dominated
    strategy is kept because it may be played in one.
    """
    kept = [list(range(len(a))), list(range(len(bt)))]
    sides = [a, bt]
    side = idle = 0
    # A pass leaves its own side undominated until the other side shrinks.
    while idle < 2:
        lines = sides[side]
        keep = _survivors(lines)
        if len(keep) == len(lines):
            idle += 1
        else:
            idle = 1
            kept[side] = [kept[side][k] for k in keep]
            sides[side] = [lines[k] for k in keep]
            sides[1 - side] = [[line[k] for k in keep] for line in sides[1 - side]]
        side = 1 - side
    return kept[0], kept[1], sides[0], sides[1]


def _lex_cross(
    tableau: list[list[int]], k: int, r: int, s: int, basis: list[int], nonbasic: list[int]
) -> int:
    """Sign of row k's lexicographic ratio minus row r's in column s.

    Called when the two rows tie on the right-hand side. The tie is
    broken by the rows' entries in the slack columns, constraint by
    constraint, each divided by the row's entry in column s. A basic
    slack's column is det times a unit vector, positive in its own row.
    The slack columns form the basis inverse, whose rows are never
    proportional, so the loop always decides before it ends.
    """
    row, best = tableau[k], tableau[r]
    own, other = basis[k], basis[r]
    for var in range(len(nonbasic), len(nonbasic) + len(tableau)):
        if var == own:
            return 1
        if var == other:
            return -1
        if var in nonbasic:
            c = nonbasic.index(var)
            cross = row[c] * best[s] - best[c] * row[s]
            if cross:
                return cross
    return 0


def _vertices(coeffs: list[list[int]]) -> dict[tuple[int, ...], int]:
    """Every vertex of {z >= 0 : coeffs z <= 1} with its label bitmask.

    coeffs is r x d with positive integer entries. Variable t < d is z_t
    and variable d + k is the slack of constraint k; a vertex carries the
    label bit of every variable that is zero there. Vertices are keyed by
    their integer coordinates divided by their gcd, which identifies them
    because no two nonzero vertices of such a polytope are proportional.

    The search walks feasible bases from the slack basis by integer
    pivoting. The tableau is condensed: row k belongs to basic variable
    basis[k], column c < d to nonbasic variable nonbasic[c], and column d
    is the right-hand side; the basic columns, always det times a unit
    vector with det the last pivot (1 at the start), are not stored.
    Pivoting on entry piv in row r and column s turns each entry a of
    another row into (a * piv - f * b) // det, an exact division, where f
    is that row's old entry in column s and b the pivot row's entry in
    a's column. Column s, now the leaving variable's, then holds -f in
    that row and det in row r, which is otherwise kept; piv is the new det.

    Every nonbasic column enters once, at the row of the lexicographic
    minimum ratio (the perturbation rule of Avis's lrs): a tie in the
    right-hand-side ratio is broken by the rows' slack columns, see
    _lex_cross. The walk then follows the bases of the simple polytope
    whose right-hand side is perturbed to 1 + (e, e^2, ...), so a
    degenerate vertex costs one basis per perturbed vertex that collapses
    onto it instead of one per feasible basis. The walk stays complete:
    the slack basis is lexicographically positive and lexicographic
    pivots keep every basis so; the perturbed polytope is bounded, so its
    edge graph is connected; and every vertex of the polytope has a
    lexicographically positive basis.
    """
    rows, d = len(coeffs), len(coeffs[0])
    full = (1 << (d + rows)) - 1
    basic = full ^ ((1 << d) - 1)
    seen = {basic}
    start = [list(coeff) + [1] for coeff in coeffs]
    stack = [(start, list(range(d, d + rows)), list(range(d)), basic, 1)]
    found: dict[tuple[int, ...], int] = {}
    while stack:
        tableau, basis, nonbasic, basic, det = stack.pop()
        point = [0] * d
        labels = full
        for var, row in zip(basis, tableau):
            value = row[d]
            if value:
                labels ^= 1 << var
                if var < d:
                    point[var] = value
        divisor = gcd(*point)
        found.setdefault(tuple(v // divisor for v in point) if divisor else tuple(point), labels)

        for s, entering in enumerate(nonbasic):
            # The polytope is bounded, so every column has a positive entry.
            r = -1
            for k, row in enumerate(tableau):
                entry = row[s]
                if entry <= 0:
                    continue
                if r >= 0:
                    cross = row[d] * best[s] - best[d] * entry
                    if not cross:
                        cross = _lex_cross(tableau, k, r, s, basis, nonbasic)
                    if cross > 0:
                        continue
                r, best = k, row
            leaving = basis[r]
            key = basic ^ (1 << leaving) ^ (1 << entering)
            if key in seen:
                continue
            seen.add(key)
            piv = best[s]
            pivoted = []
            for k, row in enumerate(tableau):
                f = row[s]
                if k == r:
                    row = row[:]
                    row[s] = det
                else:
                    row = [(a * piv - f * b) // det for a, b in zip(row, best)]
                    row[s] = -f
                pivoted.append(row)
            basis_next = basis[:r] + [entering] + basis[r + 1 :]
            nonbasic_next = nonbasic[:s] + [leaving] + nonbasic[s + 1 :]
            stack.append((pivoted, basis_next, nonbasic_next, key, piv))
    return found


def enumerate_mixed_equilibria(game: BimatrixGame) -> list[EquilibriumResult]:
    """All extreme Nash equilibria, by exact vertex enumeration.

    Each payoff matrix is scaled to positive integers, and strictly
    dominated pure strategies are eliminated from the integer matrices
    until none is left (see _undominated). This keeps the Nash set: an
    eliminated strategy does strictly worse than a survivor against
    every opponent mix on the survivors, so it is in no equilibrium's
    support, and each extreme equilibrium of the game is one of the
    subgame's widened by zeros. Weakly dominated strategies are kept. A
    single surviving profile is returned as the unique pure equilibrium.
    Otherwise every vertex of the subgame's two best-response polytopes
    P = {x >= 0 : B^T x <= 1} and Q = {y >= 0 : A y <= 1} is found by
    integer pivoting; m and n count the surviving rows and columns, and
    a game that loses no strategy is walked as it is. Label i < m is
    "row i unplayed" on P and "row i a best response" on Q; label m + j
    is "column j a best response" on P and "column j unplayed" on Q. The
    extreme equilibria are the nonzero vertex pairs that carry all m + n
    labels between them, each widened to the full game and normalised to
    sum 1. This is complete for degenerate games as well as
    nondegenerate ones. Each polytope's vertices are walked by the
    lexicographic ratio test, so the work follows the vertices rather
    than every basis of a degenerate vertex.
    Every row in supp(x) is a best response to y, and every column in
    supp(y) to x, so player 1's payoff is read from one such row and
    player 2's from one column, each as one Fraction of the scaled
    integer entries and the vertex's integer coordinates.

    Results are ordered by row support size, row support, column support
    size, column support, then the strategies themselves, so pure
    equilibria come first in row-major order.

    degenerate_game is set on every result when two distinct extreme
    equilibria (x1, y1) and (x2, y2) are cross-compatible: (x1, y2) and
    (x2, y1) are equilibria too. They then span a convex set of
    equilibria, a continuum that is reported only by its vertices.
    """
    a, scale_a, shift_a = _positive_integers(game.payoff1)
    b, scale_b, shift_b = _positive_integers(game.payoff2)
    rows, cols, sub_a, sub_bt = _undominated(a, [list(col) for col in zip(*b)])
    if len(rows) == len(cols) == 1:
        return [_pure_result(game, rows[0], cols[0])]
    m, n = len(rows), len(cols)
    full = (1 << (m + n)) - 1
    p = _vertices(sub_bt)
    q = _vertices(sub_a)
    xs = [(x, labels) for x, labels in p.items() if any(x)]
    # Q's own labels put its n coordinates first; move them after P's m rows.
    low = (1 << n) - 1
    ys = [(y, (labels & low) << m | labels >> n) for y, labels in q.items() if any(y)]
    pairs = [(x, lx, y, ly) for x, lx in xs for y, ly in ys if lx | ly == full]
    degenerate = any(
        lx1 | ly2 == full and lx2 | ly1 == full
        for i, (_, lx1, _, ly1) in enumerate(pairs)
        for (_, lx2, _, ly2) in pairs[i + 1 :]
    )
    # Each paired vertex widened to the full game, with its support, sum
    # and normalised strategy, built on its first pairing only: many
    # equilibria share a vertex, and most vertices of a generic game are
    # never paired.
    built: tuple[dict, dict] = ({}, {})

    def strategy(
        player: int, v: tuple[int, ...]
    ) -> tuple[tuple[int, ...], int, MixedStrategy, tuple[int, ...]]:
        memo = built[player]
        if v not in memo:
            keep, size = (rows, game.rows) if player == 0 else (cols, game.cols)
            wide = v
            if len(keep) < size:
                padded = [0] * size
                for k, c in zip(keep, v):
                    padded[k] = c
                wide = tuple(padded)
            total = sum(wide)
            memo[v] = (
                tuple(i for i, c in enumerate(wide) if c),
                total,
                MixedStrategy(tuple(Fraction(c, total) for c in wide)),
                wide,
            )
        return memo[v]

    found = []
    for x_sub, _, y_sub, _ in pairs:
        sx, tx, mx, x = strategy(0, x_sub)
        sy, ty, my, y = strategy(1, y_sub)
        # Undo the integer scaling: payoff = (entry - shift) / scale.
        row, col = a[sx[0]], sy[0]
        u1 = Fraction(sum(row[j] * y[j] for j in sy) - shift_a * ty, scale_a * ty)
        u2 = Fraction(sum(b[i][col] * x[i] for i in sx) - shift_b * tx, scale_b * tx)
        found.append(((len(sx), sx, len(sy), sy, mx.probs, my.probs), mx, my, (u1, u2)))
    found.sort(key=lambda item: item[0])
    return [
        EquilibriumResult(
            StrategyProfile(mx, my),
            payoffs,
            EquilibriumKind.PURE if len(sx) == len(sy) == 1 else EquilibriumKind.MIXED,
            degenerate,
        )
        for (_, sx, _, sy, _, _), mx, my, payoffs in found
    ]


def _dominates(
    p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]
) -> bool:
    """Whether p weakly improves both payoffs and strictly improves one."""
    return p[0] >= q[0] and p[1] >= q[1] and (p[0] > q[0] or p[1] > q[1])


def pareto_optimal_pure_profiles(game: BimatrixGame) -> list[tuple[int, int]]:
    """Pure profiles not Pareto-dominated by any other pure profile.

    Returns (row, col) index pairs in row-major order. A dominator must
    weakly improve both players' payoffs and strictly improve at least
    one.
    """
    cells = [(i, j) for i in range(game.rows) for j in range(game.cols)]
    out = []
    for i, j in cells:
        mine = (game.payoff1[i][j], game.payoff2[i][j])
        if not any(
            _dominates((game.payoff1[r][c], game.payoff2[r][c]), mine)
            for r, c in cells
            if (r, c) != (i, j)
        ):
            out.append((i, j))
    return out


def is_strong_nash(game: BimatrixGame, row: int, col: int) -> bool:
    """Whether the pure profile (row, col) is a strong Nash equilibrium.

    Requires Nash stability against unilateral deviations plus
    stability of the two-player coalition: no other pure profile may
    Pareto-dominate this one.
    """
    if not 0 <= row < game.rows:
        raise ValidationError(f"row {row} out of range for {game.rows} rows")
    if not 0 <= col < game.cols:
        raise ValidationError(f"col {col} out of range for {game.cols} columns")
    if not _is_pure_equilibrium(game, row, col):
        return False
    return (row, col) in pareto_optimal_pure_profiles(game)


_GAME_KEYS = {"rows", "cols", "row_labels", "col_labels", "payoff1", "payoff2"}


def load_game(text: str) -> BimatrixGame:
    """Parse the game interchange JSON format into a BimatrixGame.

    The format is an object with "payoff1" and "payoff2" (arrays of row
    arrays, entries either numbers or "p/q" strings) plus optional
    "rows" and "cols" (JSON integers), "row_labels" and "col_labels",
    which are validated against the matrices when present. Any other
    field is rejected. Decimal literals are read as the exact rationals
    they denote.
    """
    data = parse_json(text)
    if not isinstance(data, dict):
        raise ValidationError("game file must contain a JSON object")
    unknown = sorted(set(data) - _GAME_KEYS)
    if unknown:
        raise ValidationError(f"unknown field {unknown[0]!r}")
    for field in ("payoff1", "payoff2"):
        if field not in data:
            raise ValidationError(f"game file is missing {field!r}")
    game = BimatrixGame(
        payoff1=data["payoff1"],
        payoff2=data["payoff2"],
        row_labels=data.get("row_labels"),
        col_labels=data.get("col_labels"),
    )
    for field, actual in (("rows", game.rows), ("cols", game.cols)):
        declared = data.get(field)
        if declared is None:
            continue
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise ValidationError(f"{field} must be a positive integer")
        if declared != actual:
            raise ValidationError(
                f"{field} is declared as {declared} but the payoff matrices have {actual}"
            )
    return game

