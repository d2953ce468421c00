"""ConstantsResult container tests."""

from repro.ipcp.constants import ConstantsResult, empty_constants
from repro.ir.symbols import Variable, VarKind
from repro.lattice import BOTTOM, TOP, const

from tests.conftest import lower, TRI_PROGRAM


def make_result():
    x = Variable("x", VarKind.FORMAL)
    g = Variable("g", VarKind.GLOBAL)
    y = Variable("y", VarKind.FORMAL)
    val = {
        "p": {x: const(4), g: BOTTOM},
        "q": {y: TOP},
        "r": {},
    }
    return ConstantsResult(val), x, g, y


class TestQueries:
    def test_val_of(self):
        result, x, g, y = make_result()
        assert result.val_of("p", x) == const(4)
        assert result.val_of("p", g) == BOTTOM
        assert result.val_of("q", y) == TOP
        assert result.val_of("missing", x) == BOTTOM

    def test_constants_of_filters_to_constants(self):
        result, x, _g, _y = make_result()
        assert result.constants_of("p") == {x: 4}
        assert result.constants_of("q") == {}

    def test_total_pairs(self):
        result, *_ = make_result()
        assert result.total_pairs() == 1

    def test_procedures_with_constants(self):
        result, *_ = make_result()
        assert result.procedures_with_constants() == ["p"]

    def test_items_iterates_everything(self):
        result, *_ = make_result()
        assert len(list(result.items())) == 3

    def test_val_set_is_a_copy(self):
        result, x, *_ = make_result()
        snapshot = result.val_set("p")
        snapshot[x] = BOTTOM
        assert result.val_of("p", x) == const(4)


class TestEntryLattice:
    def test_top_degrades_to_bottom(self):
        program = lower(TRI_PROGRAM)
        result, x, g, y = make_result()
        # Build a ConstantsResult keyed by a real procedure.
        foo = program.procedure("foo")
        k = foo.formals[0]
        values = ConstantsResult({"foo": {k: TOP}})
        entry = values.entry_lattice(foo)
        assert entry[k] == BOTTOM

    def test_constants_survive(self):
        program = lower(TRI_PROGRAM)
        foo = program.procedure("foo")
        k = foo.formals[0]
        values = ConstantsResult({"foo": {k: const(9)}})
        assert values.entry_lattice(foo)[k] == const(9)


class TestFormatting:
    def test_report_sorted_and_named(self):
        result, *_ = make_result()
        report = result.format_report()
        assert report == "CONSTANTS(p) = {x=4}"

    def test_empty_report_message(self):
        assert "no interprocedural constants" in ConstantsResult({}).format_report()

    def test_empty_constants_helper(self):
        program = lower(TRI_PROGRAM)
        result = empty_constants(program)
        assert result.total_pairs() == 0
        for procedure in program:
            assert result.constants_of(procedure.name) == {}
