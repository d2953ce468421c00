"""Engine vs plain-driver parity over the entire golden regression
corpus.

The golden corpus pins the analyses' observable outputs; here we assert
the engine reproduces those outputs byte-for-byte on every corpus
member under that member's own configuration — cold (summaries built
and stored) and warm (summaries decoded from the same cache).
"""

import pytest

from repro.engine import Engine
from repro.ipcp.driver import analyze_source
from repro.oracle.golden import golden_programs

CORPUS = golden_programs()


def fingerprint(result):
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
        [
            (d.component, d.site, d.from_kind, d.to_kind, d.reason)
            for d in result.resilience.demotions
        ],
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_engine_matches_serial(name, tmp_path):
    member = CORPUS[name]
    plain = fingerprint(analyze_source(member.source, member.config))
    for run in ("cold", "warm"):
        with Engine(cache_dir=str(tmp_path)) as engine:
            cached = fingerprint(
                analyze_source(member.source, member.config, engine=engine)
            )
        assert cached == plain, run
