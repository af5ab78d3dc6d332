"""Bit-exact persistence of a constructed test.

Construction takes minutes to hours; application takes microseconds.  The
serialized table decouples the two.  The format is line-oriented UTF-8 text:

    RTT1 <k> <n0> <alpha>
    SWITCH <rho1> <rho_r>
    XIGRID <xi_1> ... <xi_m>
    S <lambda> <kappa> <eta> <xi>           (one line per single-tail atom)
    F <lambda> <kL> <eL> <xL> <kR> <eR> <xR> (one line per full atom)
    META <key>=<value>                       (build provenance)
    CHECKSUM <sha256 hex over all preceding lines>

Reals are written with 17 significant digits, which round-trips IEEE doubles
exactly.  A table sorts its atoms when it is constructed (on their
parameters, weight last), so a built table, its file and the table read back
hold one atom order: equal tables have identical bytes, digests, hashes and
runtime sums.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

from .errors import TableFormatError

FORMAT_TAG = "RTT1"

SingleAtomRow = tuple[float, float, float, float]
FullAtomRow = tuple[float, float, float, float, float, float, float]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# One atom row per "%"-format call; "%.17g" % x spells every double, and the
# specials, as format(x, ".17g") does.
_S_ROW = "S " + " ".join(["%.17g"] * 4)
_F_ROW = "F " + " ".join(["%.17g"] * 7)


@dataclass(frozen=True)
class TestTable:
    """A fully determined test: atoms (in the file's order), switching
    constants, and provenance."""

    __test__ = False  # not a pytest class

    k: int
    n0: int
    alpha: float
    rho1: float
    rho_r: float
    single_atoms: tuple[SingleAtomRow, ...]
    full_atoms: tuple[FullAtomRow, ...]
    xi_grid: tuple[float, ...]
    build_metadata: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.k < 2:
            raise TableFormatError("field k: tail block size must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise TableFormatError("field alpha: level must lie in (0, 1)")
        if not (self.rho1 > 0.0 and self.rho_r > 0.0):
            raise TableFormatError("field switch: switching constants must be positive")
        if not self.single_atoms or not self.full_atoms:
            raise TableFormatError("field atoms: atom lists must be nonempty")
        if not self.xi_grid:
            raise TableFormatError("field xi_grid: shape grid must be nonempty")
        if not all(map(math.isfinite, self.xi_grid)):
            raise TableFormatError("field xi_grid: shapes must be finite")
        # a finite sum has finite terms, so only a row whose sum is not
        # finite (or overflows) is checked field by field
        for row in self.single_atoms:
            if len(row) != 4 or row[0] <= 0.0 or row[2] <= 0.0:
                raise TableFormatError("field S: single atom needs positive weight and scale")
            if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                raise TableFormatError("field S: single atom fields must be finite")
        for row in self.full_atoms:
            if len(row) != 7 or row[0] <= 0.0 or row[2] <= 0.0 or row[5] <= 0.0:
                raise TableFormatError("field F: full atom needs positive weight and scales")
            if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                raise TableFormatError("field F: full atom fields must be finite")
        # the file's atom order, from construction on
        key = lambda r: (r[1:], r[0])
        object.__setattr__(self, "single_atoms", tuple(sorted(self.single_atoms, key=key)))
        object.__setattr__(self, "full_atoms", tuple(sorted(self.full_atoms, key=key)))

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def __hash__(self):
        # Memoized: hashing the atom tuples costs about 0.1 ms, and the
        # evaluator cache hashes its table on every lookup.
        return self._hash

    @cached_property
    def _digest(self) -> str:
        # Memoized like the hash: the table is frozen, and reading a file
        # computes the digest that callers then ask for again.
        payload = "\n".join(_body_lines(self)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def _body_lines(t: TestTable) -> list[str]:
    lines = [
        f"{FORMAT_TAG} {t.k} {t.n0} {_fmt(t.alpha)}",
        f"SWITCH {_fmt(t.rho1)} {_fmt(t.rho_r)}",
        "XIGRID " + " ".join(_fmt(x) for x in t.xi_grid),
    ]
    lines += [_S_ROW % tuple(row) for row in t.single_atoms]
    lines += [_F_ROW % tuple(row) for row in t.full_atoms]
    for key, value in t.build_metadata:
        lines.append(f"META {key}={value}")
    return lines


def table_checksum(t: TestTable) -> str:
    """SHA-256 over the serialization (excluding the digest line)."""
    return t._digest


def write_table(t: TestTable, destination) -> None:
    """Serialize to a path or text file object."""
    text = "\n".join(_body_lines(t) + [f"CHECKSUM {table_checksum(t)}", ""])
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        destination.write(text)


def _parse_floats(tokens, n, lineno, what):
    if len(tokens) != n:
        raise TableFormatError(f"line {lineno}: {what} expects {n} fields, got {len(tokens)}")
    try:
        return tuple(map(float, tokens))
    except ValueError as exc:
        raise TableFormatError(f"line {lineno}: {what}: {exc}") from None


def read_table(source) -> TestTable:
    """Parse and validate a serialized table; checksum and version checked."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = source.read()
    lines = raw.splitlines()
    if not lines:
        raise TableFormatError("line 1: empty table file")
    head = lines[0].split()
    if not head or head[0] != FORMAT_TAG:
        raise TableFormatError(
            f"line 1: unsupported format version {head[0] if head else '<blank>'!r};"
            f" this reader understands {FORMAT_TAG}"
        )
    if len(head) != 4:
        raise TableFormatError("line 1: header expects 'RTT1 <k> <n0> <alpha>'")
    try:
        k, n0 = int(head[1]), int(head[2])
        alpha = float(head[3])
    except ValueError as exc:
        raise TableFormatError(f"line 1: header: {exc}") from None

    rho = None
    xi_grid = None
    singles: list[SingleAtomRow] = []
    fulls: list[FullAtomRow] = []
    meta: list[tuple[str, str]] = []
    checksum = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tag, _, rest = line.partition(" ")
        tokens = rest.split()
        if tag == "SWITCH":
            rho = _parse_floats(tokens, 2, lineno, "SWITCH")
        elif tag == "XIGRID":
            if not tokens:
                raise TableFormatError(f"line {lineno}: XIGRID must list at least one value")
            xi_grid = _parse_floats(tokens, len(tokens), lineno, "XIGRID")
        elif tag == "S":
            singles.append(_parse_floats(tokens, 4, lineno, "single atom"))
        elif tag == "F":
            fulls.append(_parse_floats(tokens, 7, lineno, "full atom"))
        elif tag == "META":
            key, sep, value = rest.partition("=")
            if not sep:
                raise TableFormatError(f"line {lineno}: META expects key=value")
            meta.append((key, value))
        elif tag == "CHECKSUM":
            if len(tokens) != 1:
                raise TableFormatError(f"line {lineno}: CHECKSUM expects one digest")
            checksum = tokens[0]
        else:
            raise TableFormatError(f"line {lineno}: unknown record type {tag!r}")
    if rho is None:
        raise TableFormatError("field switch: missing SWITCH line")
    if xi_grid is None:
        raise TableFormatError("field xi_grid: missing XIGRID line")
    if checksum is None:
        raise TableFormatError("field checksum: missing CHECKSUM line (truncated file?)")
    table = TestTable(
        k=k,
        n0=n0,
        alpha=alpha,
        rho1=rho[0],
        rho_r=rho[1],
        single_atoms=tuple(singles),
        full_atoms=tuple(fulls),
        xi_grid=xi_grid,
        build_metadata=tuple(meta),
    )
    want = table_checksum(table)
    if checksum != want:
        raise TableFormatError("field checksum: digest mismatch (corrupted or edited file)")
    return table


def dumps_table(t: TestTable) -> str:
    buf = io.StringIO()
    write_table(t, buf)
    return buf.getvalue()


def loads_table(text: str) -> TestTable:
    return read_table(io.StringIO(text))
