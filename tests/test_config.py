import copy
import dataclasses
import math
import pickle
import re
from pathlib import Path

import pytest

from desirables import ConfigError, Hybrid, PowerDiscounted, StateSpace
from desirables.config import ConfigTree, build_scenario, parse, serialize

DATA = Path(__file__).parent / "data"


def test_conformance_file_parses_and_builds():
    text = (DATA / "conformance.conf").read_text()
    tree = parse(text)
    scenario = build_scenario(tree)
    assert isinstance(scenario.utility, PowerDiscounted)
    assert scenario.utility.alpha == 0.5
    assert isinstance(scenario.discount, Hybrid)
    assert scenario.states == StateSpace(("s1", "s2"))
    assert set(scenario.schedules) == {"A", "B"}
    assert scenario.schedules["A"].payments[1].state == "s1"
    assert scenario.scan_pair == ("A", "B")
    assert scenario.scan_shifts == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert len(scenario.assessments_accepted) == 2
    assert scenario.assessments_accepted[0].wealth_floor == 10000
    assert scenario.assessments_accepted[1].wealth_floor == 100
    assert scenario.wealth == 10000


def test_round_trip_is_identity_on_structure():
    text = (DATA / "conformance.conf").read_text()
    tree = parse(text)
    again = parse(serialize(tree))
    assert again.data == tree.data
    assert again.labeled == tree.labeled
    # And the round trip is a fixed point from then on.
    assert parse(serialize(again)).data == again.data


def test_every_shipped_config_parses_and_round_trips():
    for path in sorted(DATA.glob("*.conf")):
        tree = parse(path.read_text())
        build_scenario(tree)
        assert parse(serialize(tree)).data == tree.data, path.name


def test_readme_config_examples_parse():
    readme = Path(__file__).parent.parent / "README.md"
    blocks = []
    inside = False
    current: list[str] = []
    for line in readme.read_text().splitlines():
        if line.strip() == "```conf":
            inside, current = True, []
        elif inside and line.strip() == "```":
            inside = False
            blocks.append("\n".join(current))
        elif inside:
            current.append(line)
    assert len(blocks) >= 5
    for block in blocks:
        tree = parse(block)
        build_scenario(tree)
        assert parse(serialize(tree)).data == tree.data


def test_value_types():
    tree = parse('a = 1\nb = -2.5\nc = 1e3\nd = "text"\ne = true\nf = false\ng = [1, "x", {h = 2}]')
    assert tree.data == {
        "a": 1,
        "b": -2.5,
        "c": 1000.0,
        "d": "text",
        "e": True,
        "f": False,
        "g": [1, "x", {"h": 2}],
    }


def test_string_escapes_round_trip():
    tree = parse('s = "he said \\"hi\\" \\\\ there"')
    assert tree.data["s"] == 'he said "hi" \\ there'
    assert parse(serialize(tree)).data == tree.data


def test_overflowing_numbers_round_trip_and_nan_is_refused():
    tree = parse("a = 1e999\nb = [-1e999, 0.5]\nc {\n  d = -1e999\n}")
    assert tree.data == {"a": math.inf, "b": [-math.inf, 0.5], "c": {"d": -math.inf}}
    text = serialize(tree)
    assert "a = 1e999\n" in text and "b = [-1e999, 0.5]\n" in text
    assert parse(text).data == tree.data
    with pytest.raises(ValueError, match="NaN"):
        serialize(ConfigTree({"a": [math.nan]}))


def test_config_tree_defaults_are_immutable_and_not_shared_mutably():
    a, b = ConfigTree({}), ConfigTree({})
    assert a.labeled == frozenset() and isinstance(a.labeled, frozenset)
    assert dict(a.positions) == {} and a.where(("x", "y")) == (None, None)
    with pytest.raises(TypeError):
        a.positions[("x",)] = (1, 1)
    assert a.positions is b.positions and a.labeled is b.labeled  # shared, but read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.data = {}


def test_parsed_config_tree_labels_and_positions_are_read_only():
    tree = parse('wealth = 1\nschedule "A" {\n  pay = [{amount = 1, t = 0}]\n}')
    assert isinstance(tree.labeled, frozenset) and tree.labeled == {"schedule"}
    with pytest.raises(AttributeError):
        tree.labeled.add("wealth")
    with pytest.raises(TypeError):
        tree.positions[("x",)] = (1, 1)
    with pytest.raises(TypeError):
        del tree.positions[("wealth",)]
    assert not hasattr(tree.positions, "update")
    assert dict(tree.positions) == {
        ("wealth",): (1, 1),
        ("schedule",): (2, 1),
        ("schedule", "A"): (2, 1),
        ("schedule", "A", "pay"): (3, 3),
        ("schedule", "A", "pay", 0, "amount"): (3, 11),
        ("schedule", "A", "pay", 0, "t"): (3, 23),
    }
    assert tree.where(("schedule", "A", "pay", 0, "t")) == (3, 23)
    assert tree.where(("schedule", "A", "pay", 0)) == (3, 3)
    assert tree.where(("schedule", "B")) == (2, 1) and tree.where(("other",)) == (None, None)
    for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert clone == tree and type(clone.positions) is type(tree.positions)
        assert isinstance(clone.labeled, frozenset)
        assert clone.positions is not tree.positions


@pytest.mark.parametrize(
    "tree",
    [
        ConfigTree({}),
        ConfigTree({"discount": {"kind": "hyperbolic", "k": 0.5}}, labeled=frozenset({"x"})),
        parse('wealth = 1\nschedule "A" { pay = [{amount = 1, t = 0}] }'),
        ConfigTree({"wealth": 1}, positions={("wealth",): (1, 1), ("schedule", "A"): (2, 1)}),
    ],
    ids=["empty", "no positions", "parsed", "positions from a dict"],
)
def test_config_trees_deep_copy_and_pickle(tree):
    path = ("schedule", "A", "pay", 0, "t")
    for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert clone == tree and clone.where(path) == tree.where(path)
        assert clone.data is not tree.data
        assert type(clone.positions) is type(tree.positions)
        if not tree.positions:  # the one read-only default, not a copy of it
            assert clone.positions is ConfigTree({}).positions
        for positions in (tree.positions, clone.positions):
            with pytest.raises(TypeError):
                positions[("x",)] = (1, 1)


def test_config_tree_positions_are_a_copy_of_the_mapping_given():
    given = {("wealth",): (1, 1)}
    tree = ConfigTree({"wealth": 1}, positions=given)
    given[("wealth",)] = (9, 9)
    assert tree.where(("wealth", "x")) == (1, 1)
    assert ConfigTree({}, positions={}).positions is ConfigTree({}).positions


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse("utility {\n  kind = @\n}")
    assert err.value.line == 2
    assert err.value.column == 10

    with pytest.raises(ConfigError) as err:
        parse("a = 1\na = 2")
    assert err.value.line == 2


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError, match="unknown top-level key"):
        build_scenario(parse("mystery { x = 1 }"))
    with pytest.raises(ConfigError, match="unknown key") as err:
        build_scenario(parse('utility {\n  kind = "linear"\n  typo = 3\n}'))
    assert err.value.line == 3

    with pytest.raises(ConfigError, match="unknown discount kind"):
        build_scenario(parse('discount { kind = "nope" }'))


def test_parameter_bounds_surface_as_config_errors():
    with pytest.raises(ConfigError, match="alpha"):
        build_scenario(parse('utility { kind = "power_discounted", alpha = 1.5 }'))
    with pytest.raises(ConfigError, match="delta"):
        build_scenario(parse('discount { kind = "quasi_hyperbolic", beta = 0.7, delta = 1.0 }'))


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="needs key 'kind'"):
        build_scenario(parse("utility { }"))
    with pytest.raises(ConfigError, match="'r'"):
        build_scenario(parse('discount { kind = "exponential" }'))


def test_anonymous_gamble_block_is_validated():
    build_scenario(parse('gamble { states = ["s1", "s2"], rewards = [1000, -50], wealth = 10000 }'))
    with pytest.raises(ConfigError):
        build_scenario(parse('gamble { states = ["s1", "s2"], rewards = [1, -50], wealth = 10 }'))


def test_gamble_name_resolution():
    text = (
        'states { labels = ["s1", "s2"] }\n'
        'gamble "good" { rewards = [2, -1] }\n'
        "assessments { accepted = [\"good\"] }\n"
    )
    scenario = build_scenario(parse(text))
    assert len(scenario.assessments_accepted) == 1
    with pytest.raises(ConfigError, match="unknown gamble name"):
        build_scenario(parse('states { labels = ["s"] }\nassessments { accepted = ["missing"] }'))


def test_scan_defaults_to_first_two_schedules():
    text = (
        'discount { kind = "exponential", r = 0.1 }\n'
        'schedule "X" { pay = [{amount = 1, t = 0}] }\n'
        'schedule "Y" { pay = [{amount = 2, t = 1}] }\n'
        "scan { shifts = [0, 1] }\n"
    )
    scenario = build_scenario(parse(text))
    assert scenario.scan_pair == ("X", "Y")


def test_nested_scale_dependent_discount():
    text = (
        'discount { kind = "scale_dependent", '
        'base = {kind = "exponential", r = 1.0}, '
        'eta = {form = "inverse_log", log_base = 10} }'
    )
    scenario = build_scenario(parse(text))
    assert scenario.discount.factor(0.0, x=100.0) == 1.0


def test_config_error_without_position():
    err = ConfigError("plain message")
    assert err.line is None
    assert "plain message" in str(err)


def test_scan_negative_shift_is_rejected_with_position():
    text = (
        'discount { kind = "hyperbolic", k = 0.5 }\n'
        'schedule "A" { pay = [{amount = 100, t = 0}] }\n'
        'schedule "B" { pay = [{amount = 120, t = 1}] }\n'
        "scan { shifts = [0, -1] }\n"
    )
    with pytest.raises(ConfigError, match="shifts must be nonnegative, got -1.0") as err:
        build_scenario(parse(text))
    assert (err.value.line, err.value.column) == (4, 8)


TABLE = 'utility {{ kind = "composed", base = {{kind = "linear"}}, phi = {{form = "table", {}}} }}'
ETA = (
    'discount {{ kind = "scale_dependent", base = {{kind = "exponential", r = 1}}, '
    'eta = {{form = "tabulated", {}}} }}'
)


@pytest.mark.parametrize(
    "text, message",
    [
        (TABLE.format("x = 5, y = [-1, 1]"), "x must be a list of numbers"),
        (ETA.format("x = 5, y = [1]"), "x must be a list of numbers"),
        ("utility { kind = [1] }", "unknown utility kind [1]"),
        ('discount { kind = {form = "x"} }', "unknown discount kind"),
        (
            'states { labels = ["s1", "s2"] }\nassessments { accepted = [], rejected = 3 }',
            "rejected must be a list",
        ),
        (TABLE.format("x = [-1, true], y = [-1, 1]"), "x must be a number, got True"),
        (TABLE.format("x = [-1, 1], y = [true, 2]"), "y must be a number, got True"),
        (
            'utility { kind = "composed", base = {kind = "linear"}, '
            'phi = {form = "poly", coeffs = [0, true]} }',
            "coeff must be a number, got True",
        ),
        (
            'states { labels = ["s1", "s2"] }\n'
            "assessments { accepted = [{rewards = [1, -1], wealth = true}] }",
            "wealth must be a number, got True",
        ),
        (
            'states { labels = ["s1", "s2"] }\n'
            'assessments { accepted = [{rewards = [1, -1], wealth = "x"}] }',
            "wealth must be a number, got 'x'",
        ),
        ('gamble { states = [], rewards = [1] }', "state space needs at least one state"),
        (
            'discount { kind = "exponential", r = 0.1 }\n'
            'schedule "A" { pay = [{amount = 1, t = 0}] }\n'
            'schedule "B" { pay = [{amount = 2, t = 1}] }\n'
            "scan { shifts = [0], a = [1] }",
            "scan side 'a' needs an existing schedule name",
        ),
        ("wealth = 1" + "0" * 400, "wealth must be a finite number"),
        ('discount { kind = "exponential", r = 1e999 }', "r must be a finite number, got inf"),
        ('discount { kind = "hyperbolic", k = 1 }\nscan { shifts = [-1e999] }', "got -inf"),
        ("states = 3", "states must be a block"),
        ("assessments = 3", "assessments must be a block"),
        ('schedule "A" { pay = [1] }', "each payment is a block {amount = ..., t = ...}"),
        ('schedule "A" { pay = [] }', "pay must show a nonempty list of payments"),
        (
            'schedule "A" { pay = [{amount = 1, t = 0, state = 1}] }',
            "state must be a label string",
        ),
        (
            'states { labels = ["s1", "s2"] }\ngamble { states = ["a", "b"], rewards = [1, 1] }',
            "gamble states differ from the states block",
        ),
        ("gamble { rewards = [1] }", "gamble needs states (inline or via a states block)"),
        (
            'discount { kind = "state_dependent", rates = {} }',
            "rates must be a nonempty block of state = rate",
        ),
        ("wealth = 1\nwealth = 2", "duplicate key 'wealth'"),
        ('utility { kind = "linear" }\nutility { kind = "sqrt" }', "duplicate key 'utility'"),
        ('utility { kind = "linear", kind = "sqrt" }', "duplicate key 'kind'"),
        (
            'schedule = 1\nschedule "A" { pay = [{amount = 1, t = 0}] }',
            "key 'schedule' mixes labeled and plain forms",
        ),
        ("wealth = }", "expected a value, got '}'"),
        ("scan { shifts = [1 2] }", "expected ',' or ']' in list, got 2"),
    ],
    ids=[
        "phi-table-scalar-x",
        "eta-tabulated-scalar-x",
        "kind-list",
        "kind-block",
        "rejected-scalar",
        "table-x-bool",
        "table-y-bool",
        "poly-coeff-bool",
        "gamble-wealth-bool",
        "gamble-wealth-string",
        "gamble-empty-states",
        "scan-side-list",
        "int-overflow",
        "float-overflow",
        "shift-overflow",
        "states-scalar",
        "assessments-scalar",
        "payment-scalar",
        "pay-empty",
        "payment-state-number",
        "gamble-states-differ",
        "gamble-no-states",
        "rates-empty",
        "duplicate-assignment",
        "duplicate-block",
        "duplicate-block-key",
        "labeled-and-plain",
        "missing-value",
        "list-missing-comma",
    ],
)
def test_malformed_values_raise_config_errors_with_position(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)) as err:
        build_scenario(parse(text))
    assert err.value.line is not None


def test_list_entry_errors_report_the_enclosing_key():
    text = (
        'discount { kind = "exponential", r = 0.1 }\n'
        'schedule "A" { pay = [{amount = 1, t = 0}] }\n'
        'schedule "B" { pay = [{amount = 2, t = 1}] }\n'
        'scan { shifts = [0, "a"] }\n'
    )
    with pytest.raises(ConfigError, match="shift must be a number, got 'a'") as err:
        build_scenario(parse(text))
    assert (err.value.line, err.value.column) == (4, 8)
    text = 'states { labels = ["s1", "s2"] }\nassessments { accepted = [{rewards = [1, "x"]}] }'
    with pytest.raises(ConfigError, match="reward must be a number, got 'x'") as err:
        build_scenario(parse(text))
    assert (err.value.line, err.value.column) == (2, 28)


def test_labeled_component_errors_carry_a_position():
    with pytest.raises(ConfigError, match="utility needs key 'kind'") as err:
        build_scenario(parse('\nutility "x" { kind = "linear" }'))
    assert (err.value.line, err.value.column) == (2, 1)


def test_eta_log_base_defaults_to_ten():
    text = (
        'discount { kind = "scale_dependent", base = {kind = "exponential", r = 1.0}, '
        'eta = {form = "inverse_log"} }'
    )
    assert build_scenario(parse(text)).discount.eta.log_base == 10.0


def _nested(depth: int, form: str) -> str:
    """Key ``a`` holding ``depth`` nested values, innermost empty: lists for
    ``"list"``, ``b { ... }`` items for ``"{ b"``, ``b = { ... }`` for ``"{ b ="``."""
    if form == "list":
        return "a = " + "[" * depth + "]" * depth
    head = "a = " if form.endswith("=") else "a "
    return head + (form + " ") * (depth - 1) + "{ }" + " }" * (depth - 1)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("# note\n  @", "unexpected character '@'", 2, 3),
        ("a = 1  # c @\n  @", "unexpected character '@'", 2, 3),
        ("a = 1\r\n  b = @", "unexpected character '@'", 2, 7),
        ('a = "abc', "unexpected character '\"'", 1, 5),
        ('a = "x\ny"', "unexpected character '\"'", 1, 5),
        ("a = 1,\nb = 2", "expected 'ident', got ','", 1, 6),
        ("a {\n  b = 1\n  ", "expected 'ident', got None", 3, 3),
        ("a {", "expected 'ident', got None", 1, 4),
        ("a b", "expected '=', label, or block after 'a'", 1, 3),
        ("a", "expected '=', label, or block after 'a'", 1, 2),
        ("a { b 1 }", "expected '=' or block after 'b'", 1, 7),
        ("a { b }", "expected '=' or block after 'b'", 1, 7),
        ('a "x" { }\na "x" { }', "duplicate a label 'x'", 2, 1),
        ('a "x" { }\na "y" 5', "expected '{', got 5", 2, 7),
        # At the top level a repeated key is a duplicate only before '=' or a
        # block; inside a block the repeat is reported first.
        ("a = 1\na 5", "expected '=', label, or block after 'a'", 2, 3),
        ("a = 1\na", "expected '=', label, or block after 'a'", 2, 2),
        ("a { b = 1 b }", "duplicate key 'b'", 1, 11),
        (_nested(65, "list"), "values nested deeper than 64 levels", 1, 69),
        (_nested(65, "{ b"), "values nested deeper than 64 levels", 1, 259),
        (_nested(65, "{ b ="), "values nested deeper than 64 levels", 1, 389),
    ],
    ids=[
        "bad-char-after-comment-line",
        "bad-char-after-comment",
        "bad-char-after-crlf",
        "unterminated-string",
        "string-across-lines",
        "top-level-comma",
        "eof-in-block",
        "eof-after-brace",
        "top-level-no-form",
        "top-level-no-form-at-eof",
        "block-no-form",
        "block-key-then-brace",
        "duplicate-label",
        "label-without-block",
        "duplicate-then-non-value",
        "duplicate-then-eof",
        "block-duplicate-then-non-value",
        "list-depth-65",
        "block-depth-65",
        "value-block-depth-65",
    ],
)
def test_parse_errors_pin_message_line_and_column(text, message, line, column):
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {column}: {message}", line, column
    )


@pytest.mark.parametrize(
    "text", [_nested(64, "list"), _nested(64, "{ b"), _nested(64, "{ b =")],
    ids=["list-depth-64", "block-depth-64", "value-block-depth-64"],
)
def test_nesting_depth_64_is_accepted(text):
    tree = parse(text)
    depth, value = 0, tree.data["a"]
    while value:
        depth, value = depth + 1, value[0] if isinstance(value, list) else value["b"]
    assert depth == 63
