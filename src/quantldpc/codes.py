"""Parity-check matrix handling: alist I/O and regular code generation.

Matrices are kept as paired adjacency lists (rows and columns).  The
generator produces quasi-cyclic liftings of an all-ones base matrix when
the lifting size is large enough to place circulant shifts without short
cycles, and falls back to a seeded stub-matching construction with
swap-based cycle repair otherwise.  Two deterministic substitute codes with
the degree profiles used throughout the experiments are available through
bundled_code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pmf import ValidationError, _integer


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary parity-check matrix as mutually consistent adjacency."""

    n_vars: int
    n_checks: int
    row_adjacency: tuple      # per check: sorted tuple of variable indices
    column_adjacency: tuple   # per variable: sorted tuple of check indices
    source: str = ""

    def __post_init__(self):
        if self.n_vars < 1 or self.n_checks < 1:
            raise ValidationError("matrix dimensions must be positive")
        if len(self.row_adjacency) != self.n_checks:
            raise ValidationError("row adjacency length mismatch")
        if len(self.column_adjacency) != self.n_vars:
            raise ValidationError("column adjacency length mismatch")
        cols = [[] for _ in range(self.n_vars)]
        for r, row in enumerate(self.row_adjacency):
            if len(set(row)) != len(row):
                raise ValidationError(f"duplicate entry in check {r}")
            for v in row:
                if not 0 <= v < self.n_vars:
                    raise ValidationError(f"variable index {v} out of range")
                cols[v].append(r)
        for v, col in enumerate(self.column_adjacency):
            if tuple(sorted(cols[v])) != tuple(col):
                raise ValidationError(f"adjacency of variable {v} inconsistent")

    @classmethod
    def from_rows(cls, n_vars, rows, source=""):
        cols = [[] for _ in range(n_vars)]
        norm_rows = []
        for r, row in enumerate(rows):
            row = tuple(sorted(int(v) for v in row))
            norm_rows.append(row)
            for v in row:
                cols[v].append(r)
        return cls(n_vars, len(norm_rows), tuple(norm_rows),
                   tuple(tuple(c) for c in cols), source)

    @property
    def n_edges(self):
        return sum(len(r) for r in self.row_adjacency)

    def to_dense(self):
        H = np.zeros((self.n_checks, self.n_vars), dtype=np.uint8)
        for r, row in enumerate(self.row_adjacency):
            H[r, list(row)] = 1
        return H

    def rank(self):
        """GF(2) rank by bit-packed elimination."""
        words = (self.n_vars + 63) // 64
        rows = np.zeros((self.n_checks, words), dtype=np.uint64)
        for r, row in enumerate(self.row_adjacency):
            for v in row:
                rows[r, v >> 6] |= np.uint64(1 << (v & 63))
        rank = 0
        for col in range(self.n_vars):
            if rank == self.n_checks:
                break
            w = col >> 6
            mask = np.uint64(1 << (col & 63))
            hits = np.flatnonzero(rows[rank:, w] & mask) + rank
            if hits.size == 0:
                continue
            p = hits[0]
            rows[[rank, p]] = rows[[p, rank]]
            sel = np.flatnonzero(rows[:, w] & mask)
            sel = sel[sel != rank]
            rows[sel] ^= rows[rank]
            rank += 1
        return rank

    def design_rate(self):
        """1 - rank/N; differs from 1 - M/N when checks are dependent."""
        return 1.0 - self.rank() / self.n_vars


# ---------------------------------------------------------------------------
# alist format
# ---------------------------------------------------------------------------

def _ints(line, lineno):
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ValidationError(f"alist line {lineno}: non-integer token") from None


def parse_alist(text) -> ParityCheckMatrix:
    """Parse standard alist text (1-based indices, zero padding tolerated)."""
    lines = [ln for ln in text.splitlines()]
    # keep original numbering, skip pure-whitespace tails
    idx = [i for i, ln in enumerate(lines) if ln.strip()]

    def take(k):
        if k >= len(idx):
            raise ValidationError(f"alist line {len(lines) + 1}: unexpected end of file")
        return _ints(lines[idx[k]], idx[k] + 1), idx[k] + 1

    (head, lineno) = take(0)
    if len(head) != 2 or head[0] < 1 or head[1] < 1:
        raise ValidationError(f"alist line {lineno}: expected 'N M' header")
    n_vars, n_checks = head
    (maxw, lineno) = take(1)
    if len(maxw) != 2:
        raise ValidationError(f"alist line {lineno}: expected max column/row weights")
    cmax, rmax = maxw
    (col_w, lineno) = take(2)
    if len(col_w) != n_vars:
        raise ValidationError(f"alist line {lineno}: expected {n_vars} column weights")
    (row_w, lineno) = take(3)
    if len(row_w) != n_checks:
        raise ValidationError(f"alist line {lineno}: expected {n_checks} row weights")
    if max(col_w) != cmax:
        raise ValidationError("alist line 2: declared max column weight "
                              f"{cmax} != actual {max(col_w)}")
    if max(row_w) != rmax:
        raise ValidationError("alist line 2: declared max row weight "
                              f"{rmax} != actual {max(row_w)}")

    def entry_list(k, expect, upper, what):
        (ents, lineno) = take(k)
        ents = [e for e in ents if e != 0]      # padding entries
        if len(ents) != expect:
            raise ValidationError(
                f"alist line {lineno}: {what} lists {len(ents)} entries, expected {expect}")
        out = []
        for e in ents:
            if not 1 <= e <= upper:
                raise ValidationError(f"alist line {lineno}: index {e} out of range")
            out.append(e - 1)
        if len(set(out)) != len(out):
            raise ValidationError(f"alist line {lineno}: duplicate index")
        return out, lineno

    cols = []
    for v in range(n_vars):
        ents, _ = entry_list(4 + v, col_w[v], n_checks, f"column {v + 1}")
        cols.append(tuple(sorted(ents)))
    rows = []
    for r in range(n_checks):
        ents, lineno = entry_list(4 + n_vars + r, row_w[r], n_vars, f"row {r + 1}")
        rows.append((tuple(sorted(ents)), lineno))

    # cross-check both directions describe the same matrix
    from_cols = [[] for _ in range(n_checks)]
    for v, col in enumerate(cols):
        for r in col:
            from_cols[r].append(v)
    for r, (row, lineno) in enumerate(rows):
        if tuple(sorted(from_cols[r])) != row:
            raise ValidationError(
                f"alist line {lineno}: row {r + 1} disagrees with the column lists")

    return ParityCheckMatrix(n_vars, n_checks,
                             tuple(row for row, _ in rows), tuple(cols),
                             source="alist")


def write_alist(m: ParityCheckMatrix) -> str:
    """Normalized alist text: sorted 1-based indices, no padding."""
    col_w = [len(c) for c in m.column_adjacency]
    row_w = [len(r) for r in m.row_adjacency]
    out = [
        f"{m.n_vars} {m.n_checks}",
        f"{max(col_w)} {max(row_w)}",
        " ".join(str(wt) for wt in col_w),
        " ".join(str(wt) for wt in row_w),
    ]
    for col in m.column_adjacency:
        out.append(" ".join(str(r + 1) for r in col))
    for row in m.row_adjacency:
        out.append(" ".join(str(v + 1) for v in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _qc_lift(N, dv, dc, seed):
    """Circulant lifting with progressively chosen shifts, girth >= 6.

    At lifting size Z >= dv*dc a conflict-free shift always exists for
    every cell (at most (dv-1)*(dc-1) < Z values are forbidden), so the
    greedy seeded choice below never has to backtrack.
    """
    Z = N // dc
    rng = np.random.default_rng(seed)
    shifts = np.zeros((dv, dc), dtype=np.int64)
    # used difference sets per unordered row pair
    used = {(a, b): set() for a in range(dv) for b in range(a + 1, dv)}
    for j in range(dc):
        for i in range(dv):
            forbidden = set()
            for i2 in range(i):
                for d in used[(i2, i)]:
                    forbidden.add((shifts[i2, j] + d) % Z)
            choices = [s for s in range(Z) if s not in forbidden]
            if not choices:
                raise RuntimeError(
                    f"no girth-6 shift for cell ({i},{j}) at lifting size {Z}")
            shifts[i, j] = choices[rng.integers(len(choices))]
            for i2 in range(i):
                used[(i2, i)].add((shifts[i, j] - shifts[i2, j]) % Z)
    rows = []
    for i in range(dv):
        for z in range(Z):
            rows.append(tuple(sorted(j * Z + (z + shifts[i, j]) % Z
                                     for j in range(dc))))
    return ParityCheckMatrix.from_rows(
        N, rows, source=f"qc dv={dv} dc={dc} N={N} seed={seed}")


def _pair_offenses(rows, min_girth):
    """(check, position) slots violating girth: duplicate columns within a
    check, and (for girth 6) column pairs shared by two checks."""
    offenses = []
    seen = {}
    for r, row in enumerate(rows):
        counts = {}
        for k, v in enumerate(row):
            if v in counts:
                offenses.append((r, k))
            counts[v] = k
        if min_girth >= 6:
            uniq = sorted(counts)
            for a in range(len(uniq)):
                for b in range(a + 1, len(uniq)):
                    pair = (uniq[a], uniq[b])
                    if pair in seen and seen[pair] != r:
                        offenses.append((r, counts[uniq[b]]))
                    else:
                        seen[pair] = r
    return offenses


def _matching_code(N, dv, dc, seed, min_girth, max_passes=400):
    """Stub matching with swap repair of parallel edges and 4-cycles."""
    M = N * dv // dc
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(N), dv)
    rng.shuffle(stubs)
    rows = stubs.reshape(M, dc)
    E = rows.size
    for _ in range(max_passes):
        offenses = _pair_offenses(rows.tolist(), min_girth)
        if not offenses:
            break
        for r, k in offenses:
            e = rng.integers(E)
            r2, k2 = divmod(int(e), dc)
            rows[r, k], rows[r2, k2] = rows[r2, k2], rows[r, k]
    else:
        raise RuntimeError(
            f"girth-{min_girth} repair did not converge for "
            f"(N={N}, dv={dv}, dc={dc}); a structured construction is needed")
    return ParityCheckMatrix.from_rows(
        N, [tuple(sorted(row)) for row in rows.tolist()],
        source=f"matching dv={dv} dc={dc} N={N} seed={seed}")


def generate_regular_code(N, dv, dc, seed, *, min_girth=6) -> ParityCheckMatrix:
    """Deterministic (dv, dc)-regular code with N variables.

    Quasi-cyclic lifting is used when N is a multiple of dc and the
    lifting size N/dc reaches dv*dc (where girth 6 is guaranteed); other
    sizes fall back to stub matching with swap repair, which raises when
    it cannot reach the requested girth.
    """
    if dv < 1 or dc < 2:
        raise ValidationError("need dv >= 1 and dc >= 2")
    seed = _integer("seed", seed)
    if (N * dv) % dc:
        raise ValidationError(f"N*dv = {N * dv} not divisible by dc = {dc}")
    if min_girth not in (4, 6):
        raise ValidationError("min_girth must be 4 or 6")
    if min_girth == 6 and N % dc == 0 and N // dc >= dv * dc:
        return _qc_lift(N, dv, dc, seed)
    return _matching_code(N, dv, dc, seed, min_girth)


#: deterministic substitute codes with the experiment degree profiles
_BUNDLED = {
    "dv6_dc32_n2048": dict(N=2048, dv=6, dc=32, seed=20481, min_girth=4),
    "dv3_dc6_n8000": dict(N=8000, dv=3, dc=6, seed=80001, min_girth=6),
}


def bundled_code(name) -> ParityCheckMatrix:
    """One of the two generated stand-in codes (see _BUNDLED for profiles).

    The high-rate profile keeps 4-cycles: at N=2048 a girth-6 (6,32) graph
    is too dense for swap repair and needs an algebraic construction, which
    these experiments do not require.
    """
    if name not in _BUNDLED:
        raise ValidationError(f"unknown bundled code {name!r}; "
                              f"choices: {sorted(_BUNDLED)}")
    return generate_regular_code(**_BUNDLED[name])
