"""Two-player normal-form games with exact equilibrium computation.

Payoffs are rationals and every computation is exact, so the set of
equilibria reported for a game is reproduced bit for bit across runs.
Mixed equilibria are found by first eliminating strictly dominated pure
strategies, round after round, and then enumerating the vertices of the
surviving subgame's two best-response polytopes with integer pivoting
(Avis, Rosenberg, Savani and von Stengel 2010), which yields every
extreme equilibrium of any game, degenerate or not. The elimination is
strict only: a weakly dominated strategy is kept, since it may be played
in an equilibrium. A game left with one line on a side is not walked:
the other side's survivors all tie against that line, so its extreme
equilibria are the pure profiles of the surviving cells. Only a subgame
that is walked has its payoffs shifted to positive entries, inside its
walk; elimination uses the payoffs scaled to integers alone. Each
equilibrium's payoffs are read off its two vertices: on a normalised
best-response polytope, a nonzero vertex whose coordinates sum to t is
paid 1/t by every best response to it (von Stengel 2002).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm

from .rationals import (
    ValidationError, json_object, parse_json, parse_rational, reject_lone_surrogates
)

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


def _check_positive_int(value: object, field: str) -> None:
    """Raise ValidationError unless the value is an int, not a bool, of at least 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{field} must be a positive integer")


def _check_index(index: object, size: int, what: str) -> None:
    """Raise ValidationError unless the index is an int, not a bool, in range(size)."""
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValidationError(f"{what} must be an int, got {type(index).__name__}")
    if not 0 <= index < size:
        raise ValidationError(f"{what} {index} out of range for size {size}")


class _RecordType(type):
    """The type of the records: each record class has a slot per field it declares."""

    def __new__(mcls, name: str, bases: tuple, namespace: dict) -> _RecordType:
        namespace["__slots__"] = namespace.get("_fields", ())
        return super().__new__(mcls, name, bases, namespace)


class _Record(metaclass=_RecordType):
    """Base of govgame's immutable records.

    Each subclass names its fields, in order, in _fields, and gets a slot
    per field, so a record has no __dict__ or __weakref__, and a generated
    _store(self, <fields>) that stores each argument through its slot; a
    field named in the class's _defaults mapping takes that value when
    omitted. A subclass that defines no constructor of its own (nor
    inherits one from a record) uses _store as its __init__. A validating
    record writes its own constructor instead, which checks its arguments
    and ends in one self._store(...) call; _checked builds any record from
    values that are already valid, and copy, deepcopy and pickle rebuild
    one through it (__reduce__). The generated _values(self) returns the
    fields as a tuple, in order. They drive the repr Name(field=value, ...),
    the equality, which holds only between records of exactly the same
    class, and the hash. Assigning or deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        # Compiled from source, as dataclasses does, so that a wrong call
        # raises Python's own TypeError naming Class.__init__ and its fields.
        params = "".join(
            f", {name}=_defaults[{name!r}]" if name in cls._defaults else f", {name}"
            for name in cls._fields
        )
        body = "".join(f"\n    _set_{name}(self, {name})" for name in cls._fields)
        values = "".join(f"self.{name}, " for name in cls._fields)
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in cls._fields}
        namespace.update(_defaults=cls._defaults)
        role = "__init__" if cls.__init__ is object.__init__ else "_store"
        exec(f"def {role}(self{params}):{body}\ndef _values(self):\n    return ({values})", namespace)
        cls._store, cls._values = namespace[role], namespace["_values"]
        cls._store.__qualname__ = f"{cls.__qualname__}.{role}"
        cls._values.__qualname__ = f"{cls.__qualname__}._values"
        if role == "__init__":
            cls.__init__ = cls._store

    @classmethod
    def _checked(cls, *values: object) -> _Record:
        """A record from field values in _fields order, stored without any check.

        Precondition: each value is what the class's own constructor would
        store for that field. The caller guarantees this; nothing checks it.
        """
        record = object.__new__(cls)
        cls._store(record, *values)
        return record

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self)._checked, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BimatrixGame(_Record):
    """A two-player game given by one payoff matrix per player.

    Rows index player 1's pure strategies and columns player 2's. The
    two matrices must share the same shape. Entries may be given as
    ints, Fractions, or "p/q" strings and are stored as tuples of
    Fractions. Missing labels default to R1, R2, ... for rows and C1,
    C2, ... for columns.
    """

    _fields = ("payoff1", "payoff2", "row_labels", "col_labels")

    def __init__(
        self,
        payoff1: object,
        payoff2: object,
        row_labels: object = None,
        col_labels: object = None,
    ) -> None:
        p1 = _coerce_matrix(payoff1, "payoff1")
        p2 = _coerce_matrix(payoff2, "payoff2")
        if len(p2) != len(p1) or len(p2[0]) != len(p1[0]):
            raise ValidationError("payoff1 and payoff2 must have the same shape")
        rows = _coerce_labels(row_labels, len(p1), "row_labels")
        self._store(p1, p2, rows, _coerce_labels(col_labels, len(p1[0]), "col_labels"))

    @property
    def rows(self) -> int:
        return len(self.payoff1)

    @property
    def cols(self) -> int:
        return len(self.payoff1[0])


_ZERO = Fraction(0)
_ONE = Fraction(1)


class MixedStrategy(_Record):
    """A probability vector over one player's pure strategies.

    Entries must be non-negative and sum to exactly 1; probs is stored
    as a tuple of Fractions. A pure strategy is the degenerate case with
    probability 1 on a single entry.
    """

    _fields = ("probs",)

    def __init__(self, probs: object) -> None:
        if not isinstance(probs, (list, tuple)) or not probs:
            raise ValidationError("probs must be a non-empty sequence")
        probs = tuple(parse_rational(p, f"probs[{i}]") for i, p in enumerate(probs))
        if any(p < 0 for p in probs):
            raise ValidationError("probabilities must be non-negative")
        if sum(probs) != 1:
            raise ValidationError("probabilities must sum to exactly 1")
        self._store(probs)

    @classmethod
    def pure(cls, index: int, size: int) -> MixedStrategy:
        """The degenerate mix placing probability 1 on one strategy."""
        _check_index(index, size, "pure strategy index")
        return cls._checked((_ZERO,) * index + (_ONE,) + (_ZERO,) * (size - index - 1))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    @property
    def is_pure(self) -> bool:
        return len(self.support) == 1


class StrategyProfile(_Record):
    """One mixed strategy per player."""

    _fields = ("sigma1", "sigma2")


class EquilibriumKind(Enum):
    PURE = "pure"
    MIXED = "mixed"


class EquilibriumResult(_Record):
    """An equilibrium profile with its exact payoffs.

    kind is PURE exactly when both strategies place probability 1 on a
    single pure strategy. degenerate_game is set on every result when
    some extreme strategy of the game is in two of its extreme
    equilibria, which then span a continuum of equilibria; the continuum
    itself is not described, only its vertex equilibria are returned.
    """

    _fields = ("profile", "payoffs", "kind", "degenerate_game")
    _defaults = {"degenerate_game": False}


def pure_profile(game: BimatrixGame, row: int, col: int) -> StrategyProfile:
    """The profile placing probability 1 on (row, col)."""
    return StrategyProfile(
        MixedStrategy.pure(row, game.rows), MixedStrategy.pure(col, game.cols)
    )


def _pure_result(
    game: BimatrixGame, row: int, col: int, degenerate: bool = False
) -> EquilibriumResult:
    return EquilibriumResult(
        pure_profile(game, row, col),
        (game.payoff1[row][col], game.payoff2[row][col]),
        EquilibriumKind.PURE,
        degenerate,
    )


def _is_pure_equilibrium(game: BimatrixGame, row: int, col: int) -> bool:
    u1, u2 = game.payoff1[row][col], game.payoff2[row][col]
    return all(line[col] <= u1 for line in game.payoff1) and max(game.payoff2[row]) <= u2


def enumerate_pure_equilibria(game: BimatrixGame) -> list[EquilibriumResult]:
    """All pure Nash equilibria, in row-major cell order.

    A cell (i, j) qualifies when payoff1[i][j] is maximal in its column
    and payoff2[i][j] is maximal in its row. The degenerate_game flag is
    not computed here; use enumerate_mixed_equilibria for it.
    """
    cells = ((i, j) for i in range(game.rows) for j in range(game.cols))
    return [_pure_result(game, i, j) for i, j in cells if _is_pure_equilibrium(game, i, j)]


def _integers(matrix: PayoffMatrix) -> tuple[list[list[int]], int]:
    """Scale a payoff matrix to integers: entry v becomes v * scale.

    Returns the integer matrix with its scale, the lcm of the entries'
    denominators. A positive scale is a positive affine map of one
    player's payoffs, so it leaves the game's Nash equilibria and its
    strict dominance unchanged.
    """
    scale = lcm(*[v.denominator for row in matrix for v in row])
    return [[v.numerator * (scale // v.denominator) for v in row] for row in matrix], scale


def _survivors(lines: list[list[int]], keep: list[int], against: list[int]) -> list[int]:
    """The lines in keep that no other line in keep beats at every position in against."""
    survivors = []
    for k in keep:
        line = lines[k]
        for o in keep:
            other = lines[o]
            for j in against:
                if line[j] >= other[j]:
                    break
            else:
                break  # other beats line in every entry
        else:
            survivors.append(k)
    return survivors


def _undominated(a: list[list[int]], bt: list[list[int]]) -> tuple[list[int], list[int]]:
    """Iterated elimination of strictly dominated pure strategies.

    a holds player 1's payoffs by row and bt player 2's by column. A row
    is dropped when another surviving row pays player 1 strictly more
    against every surviving column, and a column likewise for player 2.
    Each round passes over the rows against the surviving columns, then
    over the columns against the rows just kept. A round whose column
    pass drops nothing is the last: its rows were kept against those same
    columns. No line beats itself, so a side's last line is never
    dropped. The order of elimination does not change the surviving
    subgame (Gilboa, Kalai and Zemel 1990). Returns the surviving row and
    column indices; the matrices are read in place, never restricted.
    Strict dominance keeps every Nash equilibrium, and a weakly dominated
    strategy is kept because it may be played in one.
    """
    rows, cols = list(range(len(a))), list(range(len(bt)))
    while True:
        rows = _survivors(a, rows, cols)
        kept = _survivors(bt, cols, rows)
        if kept == cols:
            return rows, cols
        cols = kept


def _lex_cross(
    tableau: list[list[int]], k: int, r: int, s: int, basis: list[int], nonbasic: list[int]
) -> bool:
    """Whether row k's lexicographic ratio in column s is larger than row r's.

    Called when the two rows tie on the right-hand side. The tie is
    broken by the rows' entries in the slack columns, constraint by
    constraint, each divided by the row's entry in column s. A basic
    slack's column is det times a unit vector, positive in its own row, so
    unless a nonbasic slack decides first, the row whose own slack comes
    first has the larger ratio.
    The slack columns form the basis inverse, whose rows are never
    proportional, so the loop always returns.
    """
    row, best = tableau[k], tableau[r]
    own, other = basis[k], basis[r]
    for var in range(len(nonbasic), len(nonbasic) + len(tableau)):
        if var == own or var == other:
            return var == own
        if var in nonbasic:
            c = nonbasic.index(var)
            cross = row[c] * best[s] - best[c] * row[s]
            if cross:
                return cross > 0


def _vertices(
    lines: list[list[int]], keep: list[int], against: list[int]
) -> tuple[dict[int, tuple[list[int], list[int], int]], int]:
    """Every vertex of {z >= 0 : coeffs z <= 1}, keyed by its label bitmask, and the shift.

    coeffs[k][t] is lines[keep[k]][against[t]] + shift, the one shift
    that makes the least such entry 1: entries >= 1 make the polytope
    bounded, and adding a constant to one player's payoffs moves no Nash
    equilibrium. Variable t < d = len(against) is z_t and variable d + k
    is the slack of constraint k; a vertex carries the label bit of every
    variable that is zero there, that is, of every constraint tight at
    it. The label set identifies the vertex: the constraints tight at a
    vertex have rank d, so they meet in that point alone. Each vertex
    maps to (basis, rhs, det) of the first basis found for it, rhs[k]
    being det times the value of basic variable basis[k], det the last
    pivot. Each basis is keyed by its nonbasic set, which is its label set
    when its right-hand side holds no zero; each zero in it adds the label
    of its basic variable.

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
    lexicographically positive basis. The edge on which e enters B is
    keyed by its ridge, B's nonbasic set less e, which both its ends
    share. The perturbed polytope is simple, so from a basis B exactly one
    swap B - l + e that brings e in is lexicographically positive, the one
    at e's lexicographic minimum ratio row: each ridge of a
    lexicographically positive basis lies in exactly two such bases, and
    every basis reached, by lexicographic pivots, is one. ridges toggles
    the d ridges of each basis reached, so it holds exactly the edges with
    one end reached, and an edge is ratio-tested only when it leads to a
    basis not yet reached, one edge per basis. A basis is pivoted only
    when it is popped: the stack holds its parent's tableau with the pivot
    row and column and the parent's det. A basis with no ridge in ridges
    leads nowhere new, so only its right-hand side is computed, one entry
    per row; any other is pivoted whole and ratio-tests the columns whose
    ridge is in ridges.
    """
    rows, d = len(keep), len(against)
    shift = 1 - min(lines[k][j] for k in keep for j in against)
    slack = (1 << d) - 1
    ridges = {slack ^ 1 << t for t in range(d)}
    start = [[lines[k][j] + shift for j in against] + [1] for k in keep]
    # The slack basis's own tableau needs no pivot: no pivot row, column or parent det.
    stack = [(start, None, None, None, list(range(d, d + rows)), list(range(d)), slack, 1)]
    found: dict[int, tuple[list[int], list[int], int]] = {}
    while stack:
        # old is the parent's det and det this basis's, the entry pivoted on.
        parent, r, s, old, basis, nonbasic, key, det = stack.pop()
        missed = [c for c, entering in enumerate(nonbasic) if key ^ 1 << entering in ridges]

        if missed:
            tableau = parent
            if r is not None:
                best = parent[r]
                tableau = []
                for k, row in enumerate(parent):
                    f = row[s]
                    if k == r:
                        row = row[:]
                        row[s] = old
                    else:
                        row = [(a * det - f * b) // old for a, b in zip(row, best)]
                        row[s] = -f
                    tableau.append(row)
            rhs = [row[d] for row in tableau]
        else:
            # Every edge leads to a reached basis (never so at the
            # slack basis): the labels need only the right-hand side.
            b = parent[r][d]
            rhs = [(row[d] * det - row[s] * b) // old for row in parent]
            rhs[r] = b
        labels = key
        if 0 in rhs:
            for var, value in zip(basis, rhs):
                if not value:
                    labels |= 1 << var
        if labels not in found:
            found[labels] = (basis, rhs, det)

        for s in missed:
            # The polytope is bounded, so every column has a positive entry.
            r = None
            for k, row in enumerate(tableau):
                entry = row[s]
                if entry <= 0:
                    continue
                if r is not None:
                    cross = row[d] * best[s] - best[d] * entry
                    if cross > 0 or not cross and _lex_cross(tableau, k, r, s, basis, nonbasic):
                        continue
                r, best = k, row
            entering, leaving = nonbasic[s], basis[r]
            swapped = key ^ (1 << leaving) ^ (1 << entering)
            basis_next = basis[:]
            basis_next[r] = entering
            nonbasic_next = nonbasic[:]
            nonbasic_next[s] = leaving
            ridges.symmetric_difference_update([swapped ^ 1 << var for var in nonbasic_next])
            stack.append((tableau, r, s, det, basis_next, nonbasic_next, swapped, best[s]))
    return found, shift


def _widen(
    vertex: tuple[list[int], list[int], int], keep: list[int], size: int, shift: int, scale: int
) -> tuple[tuple[int, ...], MixedStrategy, Fraction]:
    """Support, normalised strategy and the opponent's best-response payoff of a vertex.

    vertex is a nonzero (basis, rhs, det) from _vertices over len(keep)
    variables, keep their indices among size; shift and scale are those of
    the opponent's integer payoffs. The coordinates, the basic values over
    det, sum to t. Every constraint tight at the vertex equals 1 there, and
    a nonzero vertex has one, so a best response pays 1/t on the shifted
    payoffs and (1/t - shift) / scale on the game's.
    """
    basis, rhs, det = vertex
    d = len(keep)
    wide = [0] * size
    for var, value in zip(basis, rhs):
        if var < d:
            wide[keep[var]] = value
    total = sum(wide)
    mix = MixedStrategy._checked(tuple([Fraction(c, total) for c in wide]))
    support = tuple([i for i, c in enumerate(wide) if c])
    return support, mix, Fraction(det - shift * total, scale * total)


def _pairs(p: dict[int, object], index: dict[int, object], m: int, n: int) -> list[tuple[int, int]]:
    """The label sets (lx, ly) of P's and Q's vertices that carry all m + n labels together.

    p and index are keyed by label set, index in P's label order. A
    vertex of P carries at least m labels and one of Q at least n, so an
    x with exactly m labels pairs with a y of exactly n only at
    ly == full ^ lx, one lookup. The vertices with more labels than their
    dimension are scanned: each such x against all of Q, and each such y
    against the x with exactly m.
    """
    full = (1 << (m + n)) - 1
    wide_ys = [ly for ly in index if ly.bit_count() > n]
    pairs = []
    for lx in p:
        narrow = lx.bit_count() == m
        if narrow and full ^ lx in index:
            pairs.append((lx, full ^ lx))
        pairs += [(lx, ly) for ly in (wide_ys if narrow else index) if lx | ly == full]
    return pairs


def enumerate_mixed_equilibria(game: BimatrixGame) -> list[EquilibriumResult]:
    """All extreme Nash equilibria, by exact vertex enumeration.

    Each payoff matrix is scaled to integers, and strictly dominated
    pure strategies are eliminated from the integer matrices until none
    is left (see _undominated). This keeps the Nash set: an
    eliminated strategy does strictly worse than a survivor against
    every opponent mix on the survivors, so it is in no equilibrium's
    support, and each extreme equilibrium of the game is one of the
    subgame's widened by zeros. Weakly dominated strategies are kept. Once
    one row or column is left, elimination passes over the other side
    against it and drops every line that pays less there, so the other
    side's survivors tie: the surviving cells are then the extreme
    equilibria, pure, in row-major order and degenerate when two or more.
    Otherwise only the surviving subgame is shifted, inside its walk: a
    constant is added to each player's integer payoffs so that the least
    is 1, which moves no equilibrium. Every vertex of its two
    best-response polytopes P = {x >= 0 : B^T x <= 1} and
    Q = {y >= 0 : A y <= 1}, with A and B the shifted matrices, is then
    found by integer pivoting; m and n count the surviving rows and
    columns, and a game that loses no strategy is walked whole. Label
    i < m is "row i unplayed" on P and "row i a best response" on Q;
    label m + j is "column j a best response" on P and "column j
    unplayed" on Q. The extreme equilibria are the nonzero vertex pairs
    that carry all m + n labels between them, each widened to the full
    game and normalised to sum 1. This is complete for degenerate games
    as well as nondegenerate ones (see _vertices).

    The walk keys each vertex by its label set, which identifies it (see
    _vertices). The pairs are found through an index of Q's vertices by
    label set (see _pairs): a vertex with one label per dimension looks up
    the labels it lacks, and only vertices with more labels than their
    dimension, which a generic game lacks, are matched by a scan. Only the
    vertices that pair are widened, each once, and each carries its
    opponent's payoff (see _widen): every column in supp(y) is a best
    response to x, so player 2 is paid what x's vertex pays a best
    response, and player 1 likewise what y's pays. Joining two widened
    vertices builds no number.

    Results are ordered by row support size, row support, column support
    size, column support, then the strategies themselves, so pure
    equilibria come first in row-major order.

    degenerate_game is set on every result when some extreme strategy
    pairs with two of the other player's: exactly when two distinct
    extreme equilibria (x1, y1) and (x2, y2) are cross-compatible, with
    (x1, y2) and (x2, y1) equilibria too, as (x1, y2) is then a pair of
    its own. They span a continuum that is reported only by its vertices.
    """
    a, scale_a = _integers(game.payoff1)
    bt, scale_b = _integers(tuple(zip(*game.payoff2)))
    rows, cols = _undominated(a, bt)
    if len(rows) == 1 or len(cols) == 1:
        return [_pure_result(game, i, j, len(rows) * len(cols) > 1) for i in rows for j in cols]
    m, n = len(rows), len(cols)
    low = (1 << n) - 1
    p, shift_b = _vertices(bt, cols, rows)
    q, shift_a = _vertices(a, rows, cols)
    # The zero vertices, labelled by all of their own coordinates, pair
    # only with each other.
    del p[(1 << m) - 1], q[low]
    # Q's own labels put its n coordinates first; move them after P's m rows.
    index = {(ly & low) << m | ly >> n: y for ly, y in q.items()}
    pairs = _pairs(p, index, m, n)
    # Each paired vertex is widened once: many equilibria share a vertex,
    # and most vertices of a generic game are never paired.
    paired_x, paired_y = {lx for lx, _ in pairs}, {ly for _, ly in pairs}
    wide_x = {lx: _widen(p[lx], rows, game.rows, shift_b, scale_b) for lx in paired_x}
    wide_y = {ly: _widen(index[ly], cols, game.cols, shift_a, scale_a) for ly in paired_y}
    degenerate = len(wide_x) < len(pairs) or len(wide_y) < len(pairs)
    found = []
    for lx, ly in pairs:
        sx, mx, u2 = wide_x[lx]
        sy, my, u1 = wide_y[ly]
        kind = EquilibriumKind.PURE if len(sx) == len(sy) == 1 else EquilibriumKind.MIXED
        result = EquilibriumResult(StrategyProfile(mx, my), (u1, u2), kind, degenerate)
        found.append(((len(sx), sx, len(sy), sy, mx.probs, my.probs), result))
    found.sort(key=lambda item: item[0])
    return [result for _, result in found]


def _pareto_dominated(game: BimatrixGame, row: int, col: int) -> bool:
    """Whether some pure profile weakly improves both payoffs of (row, col) and strictly one."""
    u1, u2 = game.payoff1[row][col], game.payoff2[row][col]
    return any(
        v1 >= u1 and v2 >= u2 and (v1 > u1 or v2 > u2)
        for line1, line2 in zip(game.payoff1, game.payoff2)
        for v1, v2 in zip(line1, line2)
    )


def pareto_optimal_pure_profiles(game: BimatrixGame) -> list[tuple[int, int]]:
    """Pure profiles not Pareto-dominated by any other pure profile.

    Returns (row, col) index pairs in row-major order. A dominator must
    weakly improve both players' payoffs and strictly improve at least
    one.
    """
    cells = [(i, j) for i in range(game.rows) for j in range(game.cols)]
    return [(i, j) for i, j in cells if not _pareto_dominated(game, i, j)]


def is_strong_nash(game: BimatrixGame, row: int, col: int) -> bool:
    """Whether the pure profile (row, col) is a strong Nash equilibrium.

    Requires Nash stability against unilateral deviations plus
    stability of the two-player coalition: no other pure profile may
    Pareto-dominate this one.
    """
    _check_index(row, game.rows, "row")
    _check_index(col, game.cols, "col")
    return _is_pure_equilibrium(game, row, col) and not _pareto_dominated(game, row, col)


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
    data = json_object(parse_json(text), "game file", _GAME_KEYS, ("payoff1", "payoff2"))
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
        _check_positive_int(declared, field)
        if declared != actual:
            raise ValidationError(
                f"{field} is declared as {declared} but the payoff matrices have {actual}"
            )
    return game

