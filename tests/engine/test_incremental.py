"""Incremental re-analysis: dirty-set computation and the
byte-identity property.

The property test is the load-bearing check: across ≥50 seeded edit
scripts (literal mutations, call insertions, call deletions — the
latter two change the call-graph shape), an incremental warm run after
editing one procedure must (a) recompute exactly the manifest's dirty
set — the edited procedure and, of its transitive callers, those whose
callees' exports changed — asserted via the engine's
recomputed-procedure tracking, and (b) produce output byte-identical to
a cold full run of the edited program.
"""

from __future__ import annotations

import re
import random

import pytest

from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine.incremental import (
    InvalidationReport,
    diff_manifest,
    format_invalidation,
    manifest_key,
)
from repro.ipcp.driver import analyze_file
from repro.ir.printer import format_program
from repro.obs import metrics
from repro.suite.generator import GeneratorConfig, generate_program

GEN_CONFIG = GeneratorConfig(procedures=5)


# -- seeded edit scripts -----------------------------------------------------


def split_units(source: str):
    """The program's blank-line-separated units, with their names."""
    units = source.strip("\n").split("\n\n")
    named = []
    for unit in units:
        header = unit.lstrip().splitlines()[0]
        match = re.search(r"(?:PROGRAM|SUBROUTINE|FUNCTION)\s+(\w+)", header)
        named.append((match.group(1).lower(), unit))
    return named


def join_units(named) -> str:
    return "\n\n".join(unit for _, unit in named) + "\n"


def _mutate_literal(named, rng):
    """Change one `VAR = <int>` literal somewhere; body-only edit."""
    candidates = [
        (index, match)
        for index, (_, unit) in enumerate(named)
        for match in re.finditer(r"(?m)= (-?\d+)$", unit)
    ]
    if not candidates:
        return None
    index, match = rng.choice(candidates)
    name, unit = named[index]
    old = int(match.group(1))
    replacement = f"= {old + rng.randint(1, 9)}"
    unit = unit[: match.start()] + replacement + unit[match.end():]
    named[index] = (name, unit)
    return name


def _insert_call(named, rng):
    """Insert a zero-arg CALL before a unit's final statement; adds a
    call edge (and possibly a cycle), changing the call-graph shape."""
    zero_arg = [
        name
        for name, unit in named
        if re.search(r"SUBROUTINE\s+\w+\s*$", unit.lstrip().splitlines()[0])
    ]
    if not zero_arg:
        return None
    callee = rng.choice(zero_arg)
    index = rng.randrange(len(named))
    name, unit = named[index]
    lines = unit.splitlines()
    tail = 1 if not lines[-2].strip() == "RETURN" else 2
    lines.insert(len(lines) - tail, f"      CALL {callee.upper()}")
    named[index] = (name, "\n".join(lines))
    return name


def _delete_call(named, rng):
    """Delete one zero-arg CALL statement; removes a call edge."""
    candidates = [
        (index, line_no)
        for index, (_, unit) in enumerate(named)
        for line_no, line in enumerate(unit.splitlines())
        if re.fullmatch(r"\s+CALL \w+", line)
    ]
    if not candidates:
        return None
    index, line_no = rng.choice(candidates)
    name, unit = named[index]
    lines = unit.splitlines()
    del lines[line_no]
    named[index] = (name, "\n".join(lines))
    return name


EDITS = (_mutate_literal, _insert_call, _delete_call)


def apply_edit(source: str, seed: int):
    """One seeded edit; returns (new_source, edited_unit_name). Each
    seed prefers a different edit kind and falls back to the others
    (some edits have no applicable site, and a deletion can leave an
    unparsable empty block), so every seed yields one valid edit."""
    from repro.frontend.errors import FrontendError
    from repro.frontend.parser import parse_source

    rng = random.Random(seed)
    for offset in range(len(EDITS)):
        edit = EDITS[(seed + offset) % len(EDITS)]
        named = split_units(source)
        edited = edit(named, rng)
        if edited is None:
            continue
        candidate = join_units(named)
        try:
            parse_source(candidate, "prog.f")
        except FrontendError:
            continue
        return candidate, edited
    raise AssertionError(f"no edit applied for seed {seed}")


# -- rendering / graph helpers -----------------------------------------------


def render(result) -> str:
    """Every externally visible output, concatenated — what
    "byte-identical" quantifies over."""
    report = result.substitution
    return "\n".join(
        [
            result.constants.format_report(),
            str(result.substituted_constants),
            repr(sorted(report.per_procedure.items())),
            result.transformed_source(),
            format_program(result.program),
        ]
    )


def callers_closure(callgraph, name: str):
    """``name`` plus its transitive callers (the allowed dirty set)."""
    by_name = {p.name: p for p in callgraph.nodes()}
    allowed = {name}
    work = [by_name[name]]
    while work:
        current = work.pop()
        for caller in callgraph.callers(current):
            if caller.name not in allowed:
                allowed.add(caller.name)
                work.append(caller)
    return allowed


# -- the property test -------------------------------------------------------


@pytest.mark.parametrize("seed", range(54))
def test_incremental_matches_cold_and_touches_only_dirty_set(seed, tmp_path):
    source = generate_program(seed, GEN_CONFIG)
    edited_source, edited_name = apply_edit(source, seed)
    assert edited_source != source
    config = AnalysisConfig()
    path = tmp_path / "prog.f"
    cache_dir = tmp_path / "cache"

    # Populate the cache and the manifest with the original program.
    path.write_text(source)
    with Engine(cache_dir=str(cache_dir)) as engine:
        analyze_file(str(path), config, engine=engine)
        first = engine.finish_incremental(str(path))
        assert first.cold

    # Incremental warm run of the edited program.
    path.write_text(edited_source)
    with Engine(cache_dir=str(cache_dir)) as engine:
        before = metrics.snapshot()
        warm = analyze_file(str(path), config, engine=engine)
        converted = ssa_built(before)
        report = engine.finish_incremental(str(path))
        recomputed_ret = set(engine.recomputed["ret"])
        recomputed_fwd = set(engine.recomputed["fwd"])
        recomputed = rebuilt(engine)

    # Cold full run of the edited program, no engine at all.
    cold = analyze_file(str(path), config)

    assert render(warm) == render(cold)

    assert not report.cold and not report.replayed
    dirty = set(report.dirty)
    assert edited_name in dirty
    allowed = callers_closure(warm.callgraph, edited_name)
    assert dirty <= allowed, (seed, dirty, allowed)
    # The engine recomputed exactly the dirty set, nothing else.
    assert recomputed_ret == dirty, (seed, recomputed_ret, dirty)
    assert recomputed_fwd == dirty, (seed, recomputed_fwd, dirty)
    assert set(report.clean).isdisjoint(recomputed_ret | recomputed_fwd)
    assert set(report.clean) | dirty == {p.name for p in warm.program}
    # SSA was built for exactly the procedures a summary was rebuilt for.
    assert converted == len(recomputed), (seed, converted, recomputed)


def changed_chunks(before: str, after: str):
    """``(changed, total)``: the chunks of ``after`` whose (first line,
    text) ``before`` lacks — what an engine that parsed ``before`` must
    parse again — and all of them."""
    from repro.frontend.unit_memo import split_chunks

    chunks = split_chunks(after)
    return len(set(chunks) - set(split_chunks(before))), len(chunks)


def ssa_built(before: dict) -> int:
    """Procedures converted to SSA form since the ``before`` snapshot."""
    from repro.obs import metrics

    return metrics.delta_since(before)["counters"].get("ssa_procedures", 0)


def rebuilt(engine) -> set:
    """Every procedure one of whose summaries the engine recomputed."""
    return set().union(*engine.recomputed.values())


def parse_counters(before: dict) -> dict:
    from repro.obs import metrics

    delta = metrics.delta_since(before)["counters"]
    return {
        name: delta.get(name, 0)
        for name in ("parses", "parse_units_parsed", "parse_units_reused")
    }


@pytest.mark.parametrize("seed", range(54))
def test_one_engine_across_the_edit_matches_cold(seed, tmp_path):
    """The same edit scripts through ONE engine, which keeps the units
    it parsed from the original text: output is still byte-identical
    to a cold engine-less run, and only the changed chunks re-parse."""
    source = generate_program(seed, GEN_CONFIG)
    edited_source, edited_name = apply_edit(source, seed)
    config = AnalysisConfig()
    path = tmp_path / "prog.f"
    path.write_text(source)
    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        analyze_file(str(path), config, engine=engine)
        engine.finish_incremental(str(path))
        path.write_text(edited_source)
        before = metrics.snapshot()
        warm = analyze_file(str(path), config, engine=engine)
        counts = parse_counters(before)
        converted = ssa_built(before)
        report = engine.finish_incremental(str(path))
        recomputed_ret = set(engine.recomputed["ret"])
        recomputed = rebuilt(engine)
    cold = analyze_file(str(path), config)

    assert render(warm) == render(cold)
    changed, total = changed_chunks(source, edited_source)
    assert changed >= 1
    assert counts == {
        "parses": 1,
        "parse_units_parsed": changed,
        "parse_units_reused": total - changed,
    }, (seed, counts, changed)
    assert edited_name in report.dirty
    assert recomputed_ret == set(report.dirty)
    assert converted == len(recomputed), (seed, converted, recomputed)


@pytest.mark.parametrize("seed", range(54))
def test_kept_location_digests_equal_fresh_ones(seed, tmp_path):
    """Through one engine, an edit computes location digests only for
    the units it re-parsed and keeps the others' with their units; on
    every edit script, line-inserting ones included, each digest the
    warm run used equals one computed afresh."""
    from repro.engine.fingerprint import location_digest

    source = generate_program(seed, GEN_CONFIG)
    edited_source, _ = apply_edit(source, seed)
    path = tmp_path / "prog.f"
    path.write_text(source)
    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        analyze_file(str(path), AnalysisConfig(), engine=engine)
        path.write_text(edited_source)
        warm = analyze_file(str(path), AnalysisConfig(), engine=engine)
        used = dict(engine._loc_digests)
    assert used == {p.name: location_digest(p) for p in warm.program}


def test_a_literal_edit_computes_digests_only_for_parsed_units(
    tmp_path, monkeypatch
):
    from repro.engine import fingerprint
    from repro.suite.generator import ScaleConfig, generate_scaled_program

    source = generate_scaled_program(
        0, ScaleConfig(procedures=300, layer_width=32)
    )
    edited = re.sub(r"(?m)^(      \w+ = )(-?\d+)$",
                    lambda m: m.group(1) + str(int(m.group(2)) + 1),
                    source, count=1)
    path = tmp_path / "big.f"
    path.write_text(source)
    computed = []
    real = fingerprint.location_digest

    def counting(procedure):
        computed.append(procedure.name)
        return real(procedure)

    monkeypatch.setattr(fingerprint, "location_digest", counting)
    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        analyze_file(str(path), AnalysisConfig(), engine=engine)
        assert len(computed) == 301  # MAIN and P0-P299
        computed.clear()
        path.write_text(edited)
        before = metrics.snapshot()
        analyze_file(str(path), AnalysisConfig(), engine=engine)
    parsed = parse_counters(before)["parse_units_parsed"]
    assert 1 <= len(computed) <= parsed


def test_clean_rerun_recomputes_nothing(tmp_path):
    source = generate_program(3, GEN_CONFIG)
    path = tmp_path / "prog.f"
    path.write_text(source)
    config = AnalysisConfig()
    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        analyze_file(str(path), config, engine=engine)
        engine.finish_incremental(str(path))
    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        analyze_file(str(path), config, engine=engine)
        report = engine.finish_incremental(str(path))
        assert engine.recomputed["ret"] == []
        assert engine.recomputed["fwd"] == []
    assert report.dirty == []
    assert set(report.clean) == {name for name, _ in split_units(source)}


# -- unit tests for the diff/report layer ------------------------------------


class TestDiffManifest:
    @staticmethod
    def _manifest(entries):
        return {
            "procedures": {
                name: list(row) for name, row in entries.items()
            }
        }

    class _FakeGraph:
        """A call graph without cycles: every procedure is its own
        component."""

        def __init__(self, edges):
            class Node:
                def __init__(self, name):
                    self.name = name

            self._nodes = {
                name: Node(name)
                for name in set(edges) | {c for cs in edges.values() for c in cs}
            }
            self._edges = edges

        def nodes(self):
            return list(self._nodes.values())

        def callees(self, node):
            return [
                self._nodes[name] for name in self._edges.get(node.name, [])
            ]

        def sccs(self):
            return [[node] for node in self.nodes()]

    def test_cold_when_no_previous_manifest(self):
        new = self._manifest({"main": ("d1", "k1", "e1")})
        report = diff_manifest("a.f", None, new, self._FakeGraph({}))
        assert report.cold
        assert report.dirty == ["main"]
        assert "cold run" in report.format()

    def test_classification(self):
        old = self._manifest(
            {
                "main": ("dm", "km", "em"),
                "p": ("dp", "kp", "ep"),
                "q": ("dq", "kq", "eq"),
                "r": ("dr", "kr", "er"),
                "gone": ("dg", "kg", "eg"),
            }
        )
        new = self._manifest(
            {
                # downstream: key moved, digest same
                "main": ("dm", "km2", "em"),
                # edited, export moved
                "p": ("dp2", "kp2", "ep2"),
                "q": ("dq", "kq", "eq"),  # clean
                # edited, export kept: its caller main is not blamed on it
                "r": ("dr2", "kr2", "er"),
                "new": ("dn", "kn", "en"),  # added
            }
        )
        graph = self._FakeGraph(
            {"main": ["p", "q", "r"], "p": [], "q": [], "r": []}
        )
        report = diff_manifest("a.f", old, new, graph)
        assert report.edited == ["p", "r"]
        assert report.downstream == ["main"]
        assert report.added == ["new"]
        assert report.removed == ["gone"]
        assert report.clean == ["q"]
        assert report.reasons["main"] == "callee export changed: p"
        text = report.format()
        assert "4/5 procedure(s) dirty" in text
        assert "removed     gone" in text

    def test_build_manifest_keeps_hash_prefixes(self):
        from repro.engine.incremental import build_manifest

        digest, key, export = "d" * 64, "k" * 64, "e" * 64
        manifest = build_manifest(
            {"p": {"digest": digest, "key": key, "export": export}}
        )
        assert manifest == {
            "procedures": {"p": [digest[:32], key[:32], export[:32]]}
        }

    def test_format_replayed_and_roundtrip(self):
        report = InvalidationReport(path="a.f", replayed=True)
        assert "replayed" in report.format()
        assert format_invalidation(report.to_dict()) == report.format()

    def test_manifest_key_normalizes_path(self, tmp_path):
        import os

        config = AnalysisConfig()
        relative = os.path.relpath(str(tmp_path / "x.f"))
        assert manifest_key(relative, config) == manifest_key(
            str(tmp_path / "x.f"), config
        )
        assert manifest_key("a.f", config) != manifest_key("b.f", config)
