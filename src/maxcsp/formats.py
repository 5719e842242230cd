"""Parsers and serializers for DIMACS CNF, DIMACS WCNF, and truth-table CSP.

Grammars (byte-exact; ASCII/UTF-8, LF or CRLF):

CNF     comment lines start with 'c'; one header ``p cnf <n> <m>``; then m
        clauses, each a run of nonzero integer literals (|lit| <= n)
        terminated by ``0``. Clauses may span lines. Legacy SATLIB '%' and
        trailing '0' lines after the final clause are tolerated with a
        warning.

WCNF    header ``p wcnf <n> <m>`` or ``p wcnf <n> <m> <top>`` with a positive
        ``top`` (``inf`` allowed, NaN not); each clause is
        ``<weight> <lits...> 0`` with a positive real weight. A weight equal
        to ``top`` marks a hard clause, which is out of scope here.

CSP     header ``csp <n>``; one constraint per line:
        ``t <weight> <arity> <v1> ... <va> <table>`` where <table> is a
        binary string of length 2^arity whose character at position t
        (leftmost = t = 0) is the truth value of table row t (variable j of
        the constraint takes bit j of t). Blank lines and lines starting
        with '#' are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CspError, FormatError, UnsupportedError
from .instance import MAX_ARITY, Constraint, CspInstance, clause_from_literals, clause_literals

CNF = "cnf"
WCNF = "wcnf"
CSP = "csp"
KINDS = (CNF, WCNF, CSP)


@dataclass
class ParseDiagnostics:
    source_kind: str
    warnings: list[tuple[int, str]] = field(default_factory=list)

    def warn(self, line: int, message: str):
        self.warnings.append((line, message))


def _content_lines(text: str):
    """Yield (1-based line number, stripped line), skipping blanks."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line:
            yield no, line


def _parse_dimacs(text: str, weighted: bool) -> tuple[CspInstance, ParseDiagnostics]:
    diags = ParseDiagnostics(WCNF if weighted else CNF)
    expect = "wcnf" if weighted else "cnf"
    header = None
    tokens: list[tuple[str, int]] = []
    for no, line in _content_lines(text):
        if line.startswith("c"):
            continue
        if line == "%":
            diags.warn(no, "legacy '%' trailer; remaining lines ignored")
            break
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise FormatError("duplicate 'p' header", no)
            if len(fields) < 2 or fields[1] != expect:
                raise FormatError(f"expected 'p {expect}' header", no)
            want = (4,) if not weighted else (4, 5)
            if len(fields) not in want:
                raise FormatError(f"malformed 'p {expect}' header", no)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError("header counts must be integers", no) from None
            if n < 1 or m < 1:
                raise FormatError("header must declare at least one variable and one clause", no)
            top = None
            if weighted and len(fields) == 5:
                try:
                    top = float(fields[4])
                except ValueError:
                    raise FormatError("top weight must be a number", no) from None
                # a NaN top would match no weight, so no hard clause would be caught
                if not top > 0.0:
                    raise FormatError("top weight must be positive", no)
            header = (n, m, top, no)
            continue
        if header is None:
            raise FormatError(f"missing 'p {expect}' header", no)
        tokens.extend((tok, no) for tok in fields)
    if header is None:
        raise FormatError(f"missing 'p {expect}' header", len(text.splitlines()) or 1)

    n, m, top, _ = header
    constraints: list[Constraint] = []
    pos = 0
    total = len(tokens)
    last_line = tokens[-1][1] if tokens else header[3]

    while pos < total and len(constraints) < m:
        start_line = tokens[pos][1]
        weight = 1.0
        if weighted:
            wtok, wline = tokens[pos]
            pos += 1
            try:
                weight = float(wtok)
            except ValueError:
                raise FormatError(f"clause weight {wtok!r} is not a number", wline) from None
            if not math.isfinite(weight):
                raise FormatError("clause weight must be finite", wline)
            if top is not None and weight == top:
                raise UnsupportedError(
                    f"line {wline}: hard constraints out of scope (weight equals top={top:g})"
                )
            if top is not None and weight > top:
                raise FormatError("clause weight exceeds top", wline)
            if weight <= 0.0:
                raise FormatError("clause weight must be positive", wline)
        lits: list[int] = []
        seen: set[int] = set()
        terminated = False
        while pos < total:
            tok, line = tokens[pos]
            pos += 1
            if tok == "p":
                raise FormatError("duplicate 'p' header", line)
            try:
                lit = int(tok)
            except ValueError:
                raise FormatError(f"expected integer literal, got {tok!r}", line) from None
            if lit == 0:
                terminated = True
                if not lits:
                    raise FormatError("empty clause", line)
                break
            if abs(lit) > n:
                raise FormatError(f"literal {lit} out of range for {n} variables", line)
            if abs(lit) in seen:
                raise FormatError(f"variable {abs(lit)} repeated in clause", line)
            seen.add(abs(lit))
            lits.append(lit)
        if not terminated:
            raise FormatError("unterminated clause at end of input", last_line)
        try:
            constraints.append(clause_from_literals(lits, weight))
        except CspError as exc:
            raise FormatError(str(exc), start_line) from None

    if len(constraints) < m:
        raise FormatError(
            f"clause count mismatch: header declares {m}, found {len(constraints)}", last_line
        )
    while pos < total:
        tok, line = tokens[pos]
        pos += 1
        if tok == "0":
            diags.warn(line, "legacy trailing '0' ignored")
        else:
            raise FormatError(
                f"clause count mismatch: data after the {m} declared clauses", line
            )

    inst = CspInstance(n, tuple(constraints), clause_built=True)
    return inst, diags


def parse_cnf(text: str) -> tuple[CspInstance, ParseDiagnostics]:
    """Parse DIMACS CNF into a unit-weight clause instance."""
    return _parse_dimacs(text, weighted=False)


def parse_wcnf(text: str) -> tuple[CspInstance, ParseDiagnostics]:
    """Parse DIMACS WCNF (positive real weights; hard clauses rejected)."""
    return _parse_dimacs(text, weighted=True)


def parse_csp(text: str) -> tuple[CspInstance, ParseDiagnostics]:
    """Parse the native truth-table constraint format."""
    diags = ParseDiagnostics(CSP)
    num_vars = None
    constraints: list[Constraint] = []
    last_line = 1
    for no, line in _content_lines(text):
        last_line = no
        if line.startswith("#"):
            continue
        fields = line.split()
        if num_vars is None:
            if fields[0] != "csp" or len(fields) != 2:
                raise FormatError("expected 'csp <n>' header", no)
            try:
                num_vars = int(fields[1])
            except ValueError:
                raise FormatError("variable count must be an integer", no) from None
            if num_vars < 1:
                raise FormatError("need at least one variable", no)
            continue
        if fields[0] != "t":
            raise FormatError("constraint lines must start with 't'", no)
        if len(fields) < 4:
            raise FormatError("truncated constraint line", no)
        try:
            weight = float(fields[1])
        except ValueError:
            raise FormatError(f"weight {fields[1]!r} is not a number", no) from None
        try:
            arity = int(fields[2])
        except ValueError:
            raise FormatError(f"arity {fields[2]!r} is not an integer", no) from None
        if arity < 1 or arity > MAX_ARITY:
            raise FormatError(f"arity {arity} outside 1..{MAX_ARITY}", no)
        if len(fields) != 4 + arity:
            raise FormatError(
                f"expected {3 + arity} fields plus the table, got {len(fields)}", no
            )
        try:
            variables = [int(f) for f in fields[3 : 3 + arity]]
        except ValueError:
            raise FormatError("variable indices must be integers", no) from None
        if any(not 1 <= v <= num_vars for v in variables):
            raise FormatError(f"variable index out of range 1..{num_vars}", no)
        table = fields[3 + arity]
        try:
            constraints.append(Constraint.from_table_string(weight, variables, table))
        except CspError as exc:
            raise FormatError(str(exc), no) from None
    if num_vars is None:
        raise FormatError("expected 'csp <n>' header", last_line)
    if not constraints:
        raise FormatError("no constraints", last_line)
    return CspInstance(num_vars, tuple(constraints), clause_built=False), diags


def _format_weight(w: float) -> str:
    return str(int(w)) if w.is_integer() and abs(w) < 1e16 else repr(w)


def serialize(inst: CspInstance, kind: str) -> str:
    """Render an instance; parse(serialize(inst)) reconstructs it exactly."""
    if kind == CNF:
        if not inst.clause_built:
            raise UnsupportedError("cnf output requires a clause-built instance")
        if not all(c.weight == 1.0 for c in inst.constraints):
            raise UnsupportedError("cnf output requires unit weights (use wcnf)")
        lines = [f"p cnf {inst.num_vars} {inst.num_constraints}"]
        for c in inst.constraints:
            lines.append(" ".join(str(l) for l in clause_literals(c)) + " 0")
    elif kind == WCNF:
        if not inst.clause_built:
            raise UnsupportedError("wcnf output requires a clause-built instance")
        lines = [f"p wcnf {inst.num_vars} {inst.num_constraints}"]
        for c in inst.constraints:
            lits = " ".join(str(l) for l in clause_literals(c))
            lines.append(f"{_format_weight(c.weight)} {lits} 0")
    elif kind == CSP:
        lines = [f"csp {inst.num_vars}"]
        for c in inst.constraints:
            variables = " ".join(str(v) for v in c.vars)
            lines.append(f"t {_format_weight(c.weight)} {c.arity} {variables} {c.table_string}")
    else:
        raise UnsupportedError(f"unknown format kind {kind!r}")
    return "\n".join(lines) + "\n"


def detect_format(text: str) -> str:
    """Identify the format from the first header-looking line."""
    for no, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "csp":
            return CSP
        if fields[0] == "p" and len(fields) >= 2 and fields[1] in (CNF, WCNF):
            return fields[1]
        if line.startswith(("c", "#")):
            continue
        raise FormatError("unrecognized format", no)
    raise FormatError("empty input", 1)


def parse(text: str, kind: str | None = None) -> tuple[CspInstance, ParseDiagnostics]:
    """Parse with explicit ``kind`` or header auto-detection."""
    kind = kind or detect_format(text)
    if kind == CNF:
        return parse_cnf(text)
    if kind == WCNF:
        return parse_wcnf(text)
    if kind == CSP:
        return parse_csp(text)
    raise UnsupportedError(f"unknown format kind {kind!r}")
