"""Daemon against one-shot CLI: a seeded campaign edits one file several
times and checks every ``repro client`` ``analyze`` and ``explain``
response against a one-shot ``repro analyze`` (``--explain``) of the
same text, byte for byte in the CLI's rendering.

The daemon keeps state between requests (run entries, the file's
summary pack, parsed units and the lowerings its runs left
unconverted); the one-shot CLI keeps none. Edits run back to back, and
only some steps ask for an explanation (which converts every
procedure), so later edits reuse what earlier ones kept. A few seeds
run here; CI's oracle job runs :func:`campaign` over more.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path
from typing import List

import pytest

from repro.cli import main
from repro.serve import ReproClient, ReproServer, ServeConfig, wait_for_server
from repro.suite.generator import GeneratorConfig, generate_program

_LITERAL = re.compile(r"(?m)^(\s+\w+ = )(-?\d+)$")
_CELLS = re.compile(r"CONSTANTS\((\w+)\) = \{([^}]*)\}")


def edit(text: str, rng: random.Random) -> str:
    """Change one ``VAR = <int>`` literal to a value it does not hold."""
    match = rng.choice(list(_LITERAL.finditer(text)))
    value = int(match.group(2)) + rng.choice([-3, -2, -1, 1, 2, 3])
    return text[:match.start(2)] + str(value) + text[match.end(2):]


def cell_of(report: str, rng: random.Random) -> str:
    """A ``NAME@PROC`` cell of the CONSTANTS report (``main``'s first
    local when the report has none, which explains as not constant)."""
    cells = [f"{pair.split('=')[0].strip()}@{proc}"
             for proc, pairs in _CELLS.findall(report)
             for pair in pairs.split(",") if pair.strip()]
    return rng.choice(cells) if cells else "l0z@main"


def as_cli(result: dict, cell=None) -> str:
    """A daemon response rendered as ``repro analyze`` prints it."""
    lines = [f"configuration: {result['config']}",
             result["constants_report"],
             f"substituted constant references: {result['substituted']}"]
    lines += [f"  {name}: {count}"
              for name, count in sorted(result["per_procedure"].items())
              if count]
    text = "\n".join(lines) + "\n"
    if cell is not None:
        text += f"\n--- explain {cell} ---\n" + result.get("explain", "")
    return text


def one_shot(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def campaign(seed: int, workdir: Path, edits: int = 5) -> List[str]:
    """Run one seeded campaign against a fresh in-process daemon;
    return its discrepancies (empty when every response matches)."""
    rng = random.Random(seed)
    text = generate_program(seed, GeneratorConfig(procedures=8))
    path = workdir / f"prog{seed}.f"
    socket_path = str(workdir / "oracle.sock")
    server = ReproServer(ServeConfig(
        socket_path=socket_path, cache_dir=str(workdir / "cache"),
        drain_timeout_s=2.0,
    ))
    server.start()
    failures = []
    try:
        assert wait_for_server(socket_path, timeout=5.0)
        with ReproClient(socket_path) as client:
            for step in range(edits + 1):
                if step:
                    text = edit(text, rng)
                path.write_text(text)
                result = client.analyze(str(path))["result"]
                expected = one_shot(["analyze", str(path)])
                if result.get("status") != "ok" or as_cli(result) != expected:
                    failures.append(f"seed {seed} step {step}: analyze")
                if rng.random() < 0.5:
                    continue  # leave the lowerings kept for the next edit
                cell = cell_of(result.get("constants_report") or "", rng)
                result = client.explain(str(path), cell)["result"]
                expected = one_shot(["analyze", str(path), "--explain", cell])
                if (result.get("status") != "ok"
                        or as_cli(result, cell) != expected):
                    failures.append(f"seed {seed} step {step}: explain {cell}")
    finally:
        server.request_stop()
        server.finish()
    return failures


@pytest.mark.parametrize("seed", range(3))
def test_daemon_answers_as_the_one_shot_cli(seed, tmp_path):
    assert campaign(seed, tmp_path) == []
