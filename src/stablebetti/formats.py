"""Text formats: ideal files, generator-matrix files, profile strings.

Ideal file: first significant line "n=<int>", then one monomial per line
as n whitespace-separated nonnegative exponents.  "#" starts a comment,
blank lines are ignored.  Matrix file: first line "n=<int> jmin=<int>",
then one row of n nonnegative integers per line.  Profile string:
"i1,j1,b1;i2,j2,b2;...".
"""

from __future__ import annotations

from .errors import MalformedInputError, StableBettiError
from .extremal import ExtremalProfile
from .ideals import GeneratorMatrix, MonomialIdeal, minimalize


def _int_fields(fields, message) -> tuple:
    """The text fields as ints; MalformedInputError(message) if one is not."""
    try:
        return tuple(int(p) for p in fields)
    except ValueError:
        raise MalformedInputError(message)


def _significant_lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_ideal_text(text: str) -> MonomialIdeal:
    lines = list(_significant_lines(text))
    if not lines:
        raise MalformedInputError("empty ideal file")
    head = lines[0].replace(" ", "")
    if not head.startswith("n="):
        raise MalformedInputError('ideal file must start with "n=<int>"')
    (n,) = _int_fields([head[2:]], f"bad variable count {head[2:]!r}")
    gens = [_int_fields(line.split(), f"bad exponent line {line!r}") for line in lines[1:]]
    try:
        return minimalize(n, gens)
    except StableBettiError as exc:
        raise MalformedInputError(str(exc))


def format_ideal(I: MonomialIdeal) -> str:
    lines = [f"n={I.n}"]
    lines.extend(" ".join(str(e) for e in g) for g in I.gens)
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> GeneratorMatrix:
    lines = list(_significant_lines(text))
    if not lines:
        raise MalformedInputError("empty matrix file")
    head = lines[0].split()
    if not all("=" in part for part in head):
        raise MalformedInputError('matrix file must start with "n=<int> jmin=<int>"')
    fields = dict(part.split("=", 1) for part in head)
    if len(fields) != len(head) or set(fields) != {"n", "jmin"}:
        raise MalformedInputError('matrix header must define "n" and "jmin", each once')
    n, jmin = _int_fields((fields["n"], fields["jmin"]), "bad matrix header")
    rows = [_int_fields(line.split(), f"bad matrix row {line!r}") for line in lines[1:]]
    if not rows:
        raise MalformedInputError("matrix file lists no rows")
    try:
        return GeneratorMatrix(n, jmin, tuple(rows))
    except StableBettiError as exc:
        raise MalformedInputError(str(exc))


def format_matrix(M: GeneratorMatrix) -> str:
    lines = [f"n={M.n} jmin={M.jmin}"]
    lines.extend(" ".join(str(x) for x in row) for row in M.rows)
    return "\n".join(lines) + "\n"


def parse_profile(text: str, n: int) -> ExtremalProfile:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise MalformedInputError(f"profile triple {chunk!r} must be i,j,b")
        triples.append(_int_fields(parts, f"bad profile triple {chunk!r}"))
    if not triples:
        raise MalformedInputError("empty profile")
    try:
        return ExtremalProfile.from_triples(n, triples)
    except StableBettiError as exc:
        raise MalformedInputError(str(exc))
