"""Correctness check of one CLI output against the oracles behind --verify.

Runs outside the timed loop.  The CLI's printed output is parsed here (not
recomputed) and compared with what the independent oracles say about the
input:

* ``basis``: the HNF ``lattice_equal`` check on the printed basis and on
  ``generating_subset``; the printed rank must equal the input's rank.
* ``minima``: ``greedy_minima_oracle`` on the complete enumeration, then
  ``minkowski_check`` on the printed minima.
* ``decompose``: the canonical component forms of
  ``graph_decomposition_oracle``.

``oracle(name, fn)`` returns the callable to use for each oracle, so the
traced run can time it as the ``verify`` layer.
"""

from __future__ import annotations

from fractions import Fraction


def _parse_output(text: str):
    """Comment fields, vectors, and the vectors under each
    '# component j rank r' line."""
    fields: dict[str, str] = {}
    vectors: list[tuple[Fraction, ...]] = []
    components: list[list[tuple[Fraction, ...]]] = []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("# component "):
            components.append([])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            fields[key] = value
        elif not header_seen:
            header_seen = True
        elif line.strip():
            v = tuple(Fraction(t) for t in line.split())
            vectors.append(v)
            if components:
                components[-1].append(v)
    return fields, vectors, components


def parse_lattice(text: str) -> list[tuple[Fraction, ...]]:
    """Rows of a lattice file."""
    return _parse_output(text)[1]


def untraced(name, fn):
    """The oracle itself, called without timing."""
    return fn


def check_output(latkit, instance, rows, output: str, oracle=untraced) -> str:
    """Return '' when the output is correct, else the reason it is not."""
    fields, vectors, components = _parse_output(output)
    command = instance.args[0]
    if command == "basis":
        if int(fields.get("rank", -1)) != instance.rank or \
                len(vectors) != instance.rank:
            return "printed rank differs from the input's rank"
        lattice_equal = oracle("lattice_equal", latkit.lattice_equal)
        if not lattice_equal(vectors, rows):
            return "basis does not match the HNF oracle"
        _, trace = latkit.incremental_basis(rows)
        subset = latkit.generating_subset(rows, trace)
        if not lattice_equal(subset, rows):
            return "generating subset does not match the HNF oracle"
        return ""

    basis = latkit.LatticeBasis(rows)
    bound_sq = Fraction(instance.args[instance.args.index("--bound-sq") + 1])
    s = latkit.enumerate_up_to(latkit.EnumerationRequest(basis, bound_sq))
    if command == "minima":
        minima = tuple(Fraction(t) for t in fields["minima_sq"].split())
        if fields.get("partial") != "false" or len(minima) != instance.rank:
            return "minima are partial"
        expected = oracle("greedy_minima_oracle",
                          latkit.greedy_minima_oracle)(s)
        if expected.minima_sq != minima:
            return "minima differ from the greedy oracle"
        if [latkit.norm_sq(w) for w in vectors] != list(minima):
            return "witness norms differ from the minima"
        result = latkit.MinimaResult(minima, tuple(vectors), len(minima))
        if not oracle("minkowski_check", latkit.minkowski_check)(basis,
                                                                 result):
            return "minima violate Minkowski's inequalities"
        return ""

    expected = oracle("graph_decomposition_oracle",
                      latkit.graph_decomposition_oracle)(s)
    got = tuple(latkit.canonical_basis(c) for c in components)
    if got != latkit.canonical_component_forms(expected):
        return "components differ from the graph oracle"
    return ""
