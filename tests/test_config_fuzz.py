"""Property tests of the config grammar and builder (derandomized hypothesis).

* ``parse`` o ``serialize`` is a fixed point on generated trees.
* Arbitrary text either parses or raises ``ConfigError`` with a line.
* ``build_scenario`` on generated, config-shaped trees (known and unknown
  kinds and keys; numbers, bools, strings, lists, scalars where blocks belong,
  nested blocks) either builds or raises ``ConfigError`` with a line.
"""

import pytest
from hypothesis import given, settings, strategies as st

from desirables import ConfigError
from desirables.config import ConfigTree, build_scenario, parse, serialize

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789"
idents = st.builds(
    str.__add__, st.sampled_from(_ALNUM[:53]), st.text(st.sampled_from(_ALNUM), max_size=5)
).filter(lambda s: s not in ("true", "false"))
strings = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=8)
scalars = st.one_of(
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    strings,
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(idents, inner, max_size=3),
    max_leaves=8,
)
blocks = st.dictionaries(idents, values, max_size=3)


@st.composite
def trees(draw):
    data, labeled = {}, set()
    for key in draw(st.lists(idents, max_size=4, unique=True)):
        if draw(st.booleans()):
            data[key] = draw(st.dictionaries(strings, blocks, min_size=1, max_size=2))
            labeled.add(key)
        else:
            data[key] = draw(values)
    return ConfigTree(data=data, labeled=labeled)


@FUZZ
@given(trees())
def test_parse_serialize_is_a_fixed_point(tree):
    text = serialize(tree)
    again = parse(text)
    assert again.data == tree.data
    assert again.labeled == tree.labeled
    assert serialize(again) == text


@FUZZ
@given(st.lists(st.sampled_from([*'{}[]=,"\\#\n \tak_09.-e@', "true", "1e999"]), max_size=40).map("".join))
def test_arbitrary_text_raises_only_config_errors_with_a_line(text):
    try:
        parse(text)
    except ConfigError as exc:
        assert exc.line is not None and exc.column is not None


def test_deep_nesting_and_long_numbers_are_config_errors():
    for text in ("a = " + "[" * 5000, "a {" + " b {" * 5000):
        with pytest.raises(ConfigError, match="nested deeper") as err:
            parse(text)
        assert err.value.line == 1
    # Python 3.11 caps int() at 4300 digits; older versions parse the number.
    try:
        parse("a = " + "9" * 5000)
    except ConfigError as exc:
        assert exc.line == 1


# An independent description of the component grammar: per family, the key
# naming the kind and, per kind, each key's value type.
_COMPONENTS = {
    "utility": ("kind", {
        "linear": {},
        "log_shift": {},
        "sqrt": {},
        "power_discounted": {"alpha": "number"},
        "composed": {"base": "utility", "phi": "phi"},
    }),
    "phi": ("form", {
        "scale": {"c": "number"},
        "power": {"p": "number"},
        "poly": {"coeffs": "numbers"},
        "table": {"x": "numbers", "y": "numbers"},
    }),
    "discount": ("kind", {
        "exponential": {"r": "number"},
        "hyperbolic": {"k": "number"},
        "quasi_hyperbolic": {"beta": "number", "delta": "number"},
        "generalized_hyperbolic": {"k": "number", "p": "number"},
        "scale_dependent": {"base": "discount", "eta": "eta"},
        "state_dependent": {"rates": "rates"},
        "hybrid": {"lambda": "number", "d1": "discount", "d2": "discount"},
    }),
    "eta": ("form", {
        "inverse_log": {"log_base": "number"},
        "tabulated": {"x": "numbers", "y": "numbers"},
    }),
}

labels = st.sampled_from(["s1", "s2", "s3", "A", "B"])
numbers = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.5, 0.95, 1.5, 10, 100, -0.0, 1e300, 10**400]),
    st.floats(-1e3, 1e3),
)
junk = st.one_of(scalars, st.lists(scalars, max_size=3), st.dictionaries(idents, scalars, max_size=2))


def _maybe_junk(draw, strategy):
    """Mostly a well-typed value, sometimes anything else."""
    return draw(junk) if draw(st.integers(0, 19)) == 0 else draw(strategy)


@st.composite
def _block(draw, keys):
    """A block with a random subset of ``keys`` (name -> strategy), maybe one unknown key."""
    block = {k: _maybe_junk(draw, s) for k, s in keys.items() if draw(st.integers(0, 19))}
    if draw(st.integers(0, 19)) == 0:
        block[draw(idents)] = draw(junk)
    return block


@st.composite
def components(draw, family, depth=0):
    tag, kinds = _COMPONENTS[family]
    kind = draw(st.sampled_from(sorted(kinds)))
    typed = {
        "number": numbers,
        "numbers": st.lists(numbers, max_size=4),
        "rates": st.dictionaries(labels, numbers, max_size=3),
    }
    keys = {
        key: typed[kind_of] if kind_of in typed else
        (st.just({}) if depth > 2 else components(kind_of, depth + 1))
        for key, kind_of in kinds[kind].items()
    }
    block = draw(_block(keys))
    block[tag] = _maybe_junk(draw, st.just(kind))
    return block


state_lists = st.lists(labels, min_size=0, max_size=3)
gambles = _block({"states": state_lists, "rewards": st.lists(numbers, max_size=3), "wealth": numbers})
gamble_refs = st.one_of(gambles, labels, junk)
payments = _block({"amount": numbers, "t": numbers, "state": labels})
top_level = {
    "utility": components("utility"),
    "discount": components("discount"),
    "states": _block({"labels": state_lists}),
    "wealth": numbers,
    "schedule": st.dictionaries(labels, _block({"pay": st.lists(payments, max_size=3)}), max_size=3),
    "gamble": st.one_of(st.dictionaries(labels, gambles, min_size=1, max_size=2), gambles),
    "scan": _block({"shifts": st.lists(numbers, max_size=3), "a": labels, "b": labels}),
    "assessments": _block({
        "accepted": st.lists(gamble_refs, max_size=3),
        "rejected": st.lists(gamble_refs, max_size=2),
        "wealth": numbers,
    }),
}


@st.composite
def scenario_trees(draw):
    data, labeled = {}, set()
    for key, strategy in top_level.items():
        if draw(st.booleans()):
            data[key] = _maybe_junk(draw, strategy)
            if key in ("schedule", "gamble") and isinstance(data[key], dict) and data[key]:
                if all(isinstance(v, dict) for v in data[key].values()) and draw(st.booleans()):
                    labeled.add(key)
    if draw(st.integers(0, 19)) == 0:
        data.setdefault(draw(idents), draw(junk))
    return ConfigTree(data=data, labeled=labeled)


@FUZZ
@given(scenario_trees())
def test_build_raises_only_config_errors_with_a_line(tree):
    text = serialize(tree)
    try:
        build_scenario(parse(text))
    except ConfigError as exc:
        assert exc.line is not None, (str(exc), text)
