"""Scenario configuration: a minimal key-value tree grammar and its builders.

Grammar (informal)::

    config    := statement*
    statement := IDENT WSTRING? block     # named section, e.g. schedule "A" { ... }
               | IDENT '=' value          # top-level assignment, e.g. wealth = 10000
    block     := '{' item* '}'
    item      := IDENT '=' value [',']
               | IDENT block [',']        # no label inside a block
    value     := NUMBER | STRING | 'true' | 'false' | list | block
    list      := '[' [value (',' value)* [',']] ']'

Comments run from '#' to end of line.  Strings are double-quoted with \\"
and \\\\ escapes.  Item separators inside blocks are optional (newline or
comma); list elements require commas.  Unknown keys are hard errors.

``build_scenario`` turns a parsed tree into a validated ``Scenario``.  Every
component block (``utility`` and its ``phi``, ``discount`` and its ``eta``) is
built by one function, ``_build``, from one table, ``_COMPONENTS``: for each
family, the key that names the kind (``kind`` or ``form``), and for each kind
the constructor and its keys in argument order.  Each key has one typed reader
(number, list of numbers, state-rate block, or nested component) and may carry
a default.  The rest of the scenario (rewards, shifts, state labels) goes
through the same readers.  A constructor's ``ValueError`` is reported as a
``ConfigError`` at its block; every error carries the line and column of the
nearest enclosing key.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping, Set

from ._record import Record
from .discount import (
    DiscountSpec,
    Exponential,
    GeneralizedHyperbolic,
    Hybrid,
    Hyperbolic,
    InverseLog,
    QuasiHyperbolic,
    ScaleDependent,
    StateDependent,
    TabulatedEta,
)
from .errors import ConfigError
from .intertemporal import DatedPayment, PaymentSchedule
from .utility import (
    Composed,
    Linear,
    LogShift,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    PowerDiscounted,
    Sqrt,
    Utility,
)

__all__ = ["ConfigTree", "parse", "serialize", "Scenario", "build_scenario"]

# Each match skips blanks, newlines and comments, then reads one token; the
# last two alternatives end the text and catch any other character (a newline
# is always skipped, so '.' reaches every character left).
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
      (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<punct>[{}\[\]=,])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


# Blocks and lists nest at most this deep, well inside Python's recursion limit.
_MAX_NESTING = 64


def _tokenize(text: str) -> list[tuple]:
    """Tokens as (kind, value, line, column); the last one is ("eof", None, ...)."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        breaks = text.count("\n", m.start(), pos)
        if breaks:
            line += breaks
            line_start = text.rindex("\n", m.start(), pos) + 1
        col = pos - line_start + 1
        value = m.group(kind)
        if kind == "number":
            try:
                value = float(value) if any(c in value for c in ".eE") else int(value)
            except ValueError:  # more digits than int() converts
                raise ConfigError(f"number too long ({len(value)} digits)", line, col) from None
        elif kind == "ident" and value in ("true", "false"):
            kind, value = "bool", value == "true"
        elif kind == "string":
            value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        elif kind == "punct":
            kind = value
        elif kind == "bad":
            raise ConfigError(f"unexpected character {value!r}", line, col)
        elif kind == "eof":
            tokens.append((kind, None, line, col))
            return tokens
        tokens.append((kind, value, line, col))


class _ReadOnlyMap(Mapping):
    """A read-only copy of a dict.  The empty one, ``_NO_POSITIONS``, copies and unpickles as itself."""

    __slots__ = ("_items",)

    def __init__(self, items=()):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __contains__(self, key):
        return key in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __reduce__(self):
        return "_NO_POSITIONS" if self is _NO_POSITIONS else (_ReadOnlyMap, (self._items,))

    def __repr__(self):
        return repr(self._items)


_NO_POSITIONS = _ReadOnlyMap()


class ConfigTree(Record):
    """Parsed configuration: data tree, which keys were label-style, key positions."""

    data: dict
    labeled: Set[str] = frozenset()
    positions: Mapping[tuple, tuple[int, int]] = _NO_POSITIONS

    def where(self, path: tuple) -> tuple[int | None, int | None]:
        """Position of ``path``, else of its nearest ancestor that has one."""
        path = tuple(path)
        while path and path not in self.positions:
            path = path[:-1]
        return self.positions.get(path, (None, None))


class _Parser:
    """Recursive descent over (kind, value, line, column) tokens."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.i = 0
        self.positions: dict[tuple, tuple[int, int]] = {}

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def next(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    @staticmethod
    def fail(message: str, tok: tuple):
        raise ConfigError(message, tok[2], tok[3])

    def expect(self, kind: str, path: tuple = ()) -> tuple:
        """The next token, which must be ``kind``; a bracket opening ``path`` is depth-checked."""
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, got {tok[1]!r}", tok)
        if len(path) > _MAX_NESTING:
            self.fail(f"values nested deeper than {_MAX_NESTING} levels", tok)
        return tok

    def parse_config(self) -> ConfigTree:
        data: dict = {}
        labeled: set[str] = set()
        while self.peek()[0] != "eof":
            tok = self.expect("ident")
            key = tok[1]
            if self.peek()[0] == "string":
                label = self.next()[1]
                if key in data and key not in labeled:
                    self.fail(f"key {key!r} mixes labeled and plain forms", tok)
                group = data.setdefault(key, {})
                labeled.add(key)
                self.positions.setdefault((key,), tok[2:])
                if label in group:
                    self.fail(f"duplicate {key} label {label!r}", tok)
                self.positions[(key, label)] = tok[2:]
                group[label] = self.parse_block((key, label))
            # A repeated key is a duplicate only where a value follows it.
            elif key in data and self.peek()[0] in ("=", "{"):
                self.fail(f"duplicate key {key!r}", tok)
            else:
                data[key] = self.parse_item((key,), tok, "'=', label, or block")
        return ConfigTree(data=data, labeled=frozenset(labeled), positions=_ReadOnlyMap(self.positions))

    def parse_block(self, path: tuple) -> dict:
        self.expect("{", path)
        block: dict = {}
        while self.peek()[0] != "}":
            if self.peek()[0] == ",":
                self.next()
                continue
            tok = self.expect("ident")
            key = tok[1]
            if key in block:
                self.fail(f"duplicate key {key!r}", tok)
            block[key] = self.parse_item(path + (key,), tok, "'=' or block")
        self.next()
        return block

    def parse_item(self, path: tuple, tok: tuple, forms: str):
        """The ``= value`` or block after the key ``tok``, whose position is recorded;
        ``forms`` names what may follow the key where the item stands."""
        nxt = self.peek()
        if nxt[0] not in ("=", "{"):
            self.fail(f"expected {forms} after {tok[1]!r}", nxt)
        self.positions[path] = tok[2:]
        if nxt[0] == "=":
            self.next()
        return self.parse_value(path)

    def parse_value(self, path: tuple):
        tok = self.peek()
        if tok[0] in ("number", "string", "bool"):
            return self.next()[1]
        if tok[0] == "[":
            return self.parse_list(path)
        if tok[0] == "{":
            return self.parse_block(path)
        self.fail(f"expected a value, got {tok[1]!r}", tok)

    def parse_list(self, path: tuple) -> list:
        self.expect("[", path)
        items: list = []
        while self.peek()[0] != "]":
            items.append(self.parse_value(path + (len(items),)))
            tok = self.peek()
            if tok[0] == ",":
                self.next()
            elif tok[0] != "]":
                self.fail(f"expected ',' or ']' in list, got {tok[1]!r}", tok)
        self.next()
        return items


def parse(text: str) -> ConfigTree:
    """Parse configuration text; raises ConfigError with line/column on failure."""
    return _Parser(_tokenize(text)).parse_config()


def _emit_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value).replace("inf", "1e999")  # an overflowing literal parses to +-inf
        if text == "nan":
            raise ValueError("cannot serialize NaN: no config number parses to it")
        return text
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, list):
        return "[" + ", ".join(_emit_value(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{k} = {_emit_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit_block(block: dict) -> str:
    return "{\n" + "".join(f"  {k} = {_emit_value(v)}\n" for k, v in block.items()) + "}\n"


def serialize(tree: ConfigTree) -> str:
    """Render a tree back to config text that parses to an identical structure."""
    lines = []
    for key, value in tree.data.items():
        if key in tree.labeled:
            for label, block in value.items():
                lines.append(f"{key} {_emit_value(label)} {_emit_block(block)}")
        elif isinstance(value, dict):
            lines.append(f"{key} {_emit_block(value)}")
        else:
            lines.append(f"{key} = {_emit_value(value)}\n")
    return "".join(lines)


class Scenario(Record):
    """Validated scenario: every component invariant checked at build time."""

    utility: Utility
    discount: DiscountSpec | None
    states: StateSpace | None
    schedules: dict[str, PaymentSchedule]
    scan_shifts: list[float] | None
    scan_pair: tuple[str, str] | None
    assessments_accepted: list[Gamble]
    assessments_rejected: list[Gamble]
    has_assessments: bool
    wealth: float | None


_TOP_KEYS = {"utility", "discount", "states", "schedule", "scan", "assessments", "wealth", "gamble"}


def _fail(tree: ConfigTree, path: tuple, message: str):
    line, col = tree.where(path)
    raise ConfigError(message, line, col)


def _check_keys(tree: ConfigTree, path: tuple, block: dict, allowed: set[str], what: str):
    for key in block:
        if key not in allowed:
            _fail(tree, path + (key,), f"unknown key {key!r} in {what}")


def _block(tree: ConfigTree, path: tuple, value, allowed: set[str], what: str) -> dict:
    """``value`` as a block whose keys are all in ``allowed``."""
    if not isinstance(value, dict):
        _fail(tree, path, f"{what} must be a block")
    _check_keys(tree, path, value, allowed, what)
    return value


def _need(tree: ConfigTree, path: tuple, block: dict, key: str, what: str):
    if key not in block:
        _fail(tree, path, f"{what} needs key {key!r}")
    return block[key]


def _make(tree: ConfigTree, path: tuple, make, *args):
    """Call a constructor, reporting its ValueError as a ConfigError at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        _fail(tree, path, str(exc))


# Typed readers: (tree, path of the value, value, key) -> constructor argument.


def _number(tree: ConfigTree, path: tuple, value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(tree, path, f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # 1e999 reads as inf; NaN fails too
        _fail(tree, path, f"{key} must be a finite number, got {value!r}")
    return float(value)


def _numbers(tree: ConfigTree, path: tuple, value, key: str, nonempty=False) -> list[float]:
    if not isinstance(value, list) or (nonempty and not value):
        _fail(tree, path, f"{key} must be a {'nonempty ' if nonempty else ''}list of numbers")
    # Entries are named in the singular: "shift must be a number, got 'a'".
    item = key.removesuffix("s")
    return [_number(tree, path + (i,), v, item) for i, v in enumerate(value)]


def _rates(tree: ConfigTree, path: tuple, value, key: str) -> dict[str, float]:
    if not isinstance(value, dict) or not value:
        _fail(tree, path, f"{key} must be a nonempty block of state = rate")
    return {s: _number(tree, path + (s,), r, s) for s, r in value.items()}


def _states(tree: ConfigTree, path: tuple, value, key: str) -> StateSpace:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        _fail(tree, path, f"{key} must be a list of strings")
    from .gamble import StateSpace  # gamble imports numpy: only states and gambles load it
    return _make(tree, path, StateSpace, tuple(value))


def _component(family: str):
    """Reader of a nested component block of ``family``."""
    return lambda tree, path, value, key: _build(tree, path, value, family)


# family -> (the key naming its kind, {kind: (constructor, keys in argument
# order)}); each key is (name, reader) or (name, reader, default).
_COMPONENTS = {
    "utility": ("kind", {
        "linear": (Linear, ()),
        "log_shift": (LogShift, ()),
        "sqrt": (Sqrt, ()),
        "power_discounted": (PowerDiscounted, (("alpha", _number),)),
        "composed": (Composed, (("base", _component("utility")), ("phi", _component("phi")))),
    }),
    "phi": ("form", {
        "scale": (PhiScale, (("c", _number),)),
        "power": (PhiPower, (("p", _number),)),
        "poly": (PhiPoly, (("coeffs", _numbers),)),
        "table": (PhiTable, (("x", _numbers), ("y", _numbers))),
    }),
    "discount": ("kind", {
        "exponential": (Exponential, (("r", _number),)),
        "hyperbolic": (Hyperbolic, (("k", _number),)),
        "quasi_hyperbolic": (QuasiHyperbolic, (("beta", _number), ("delta", _number))),
        "generalized_hyperbolic": (GeneralizedHyperbolic, (("k", _number), ("p", _number))),
        "scale_dependent": (
            ScaleDependent, (("base", _component("discount")), ("eta", _component("eta")))
        ),
        "state_dependent": (StateDependent, (("rates", _rates),)),
        "hybrid": (
            Hybrid,
            (("lambda", _number), ("d1", _component("discount")), ("d2", _component("discount"))),
        ),
    }),
    "eta": ("form", {
        "inverse_log": (InverseLog, (("log_base", _number, 10),)),
        "tabulated": (TabulatedEta, (("x", _numbers), ("y", _numbers))),
    }),
}


def _build(tree: ConfigTree, path: tuple, block, family: str):
    """Construct the ``family`` component described by ``block`` (see ``_COMPONENTS``)."""
    tag, kinds = _COMPONENTS[family]
    if not isinstance(block, dict):
        _fail(tree, path, f"{family} must be a block")
    kind = _need(tree, path, block, tag, family)
    if not isinstance(kind, str) or kind not in kinds:
        _fail(tree, path + (tag,), f"unknown {family} {tag} {kind!r}")
    make, keys = kinds[kind]
    _check_keys(tree, path, block, {key for key, *_ in keys} | {tag}, f"{family} {kind!r}")
    args = []
    for key, read, *default in keys:
        value = block.get(key, *default) if default else _need(tree, path, block, key, kind)
        args.append(read(tree, path + (key,), value, key))
    return _make(tree, path, make, *args)


def _build_gamble(
    tree: ConfigTree,
    path: tuple,
    block,
    states: StateSpace | None,
    default_wealth: float | None,
    named: dict[str, Gamble],
) -> Gamble:
    if isinstance(block, str):
        if block not in named:
            _fail(tree, path, f"unknown gamble name {block!r}")
        return named[block]
    if not isinstance(block, dict):
        _fail(tree, path, "gamble must be a block or a gamble name")
    _check_keys(tree, path, block, {"states", "rewards", "wealth"}, "gamble")
    rewards = _need(tree, path, block, "rewards", "gamble")
    rewards = _numbers(tree, path + ("rewards",), rewards, "rewards", nonempty=True)
    space = states
    if "states" in block:
        space = _states(tree, path + ("states",), block["states"], "states")
        if states is not None and space != states:
            _fail(tree, path + ("states",), "gamble states differ from the states block")
    if space is None:
        _fail(tree, path, "gamble needs states (inline or via a states block)")
    wealth = default_wealth
    if "wealth" in block:
        wealth = _number(tree, path + ("wealth",), block["wealth"], "wealth")
    from .gamble import Gamble
    return _make(tree, path, Gamble, space, rewards, wealth)


def build_scenario(tree: ConfigTree) -> Scenario:
    """Validate the tree and construct every component; unknown keys are hard errors."""
    data = tree.data
    for key in data:
        if key not in _TOP_KEYS:
            _fail(tree, (key,), f"unknown top-level key {key!r}")

    utility = _build(tree, ("utility",), data.get("utility", {"kind": "linear"}), "utility")

    discount = None
    if "discount" in data:
        discount = _build(tree, ("discount",), data["discount"], "discount")

    states = None
    if "states" in data:
        block = _block(tree, ("states",), data["states"], {"labels"}, "states")
        labels = _need(tree, ("states",), block, "labels", "states")
        states = _states(tree, ("states", "labels"), labels, "labels")

    wealth = None
    if "wealth" in data:
        wealth = _number(tree, ("wealth",), data["wealth"], "wealth")

    named_gambles: dict[str, Gamble] = {}
    if "gamble" in data:
        if "gamble" in tree.labeled:
            for name, block in data["gamble"].items():
                named_gambles[name] = _build_gamble(
                    tree, ("gamble", name), block, states, wealth, {}
                )
        else:
            # A single anonymous gamble block is valid and validated.
            _build_gamble(tree, ("gamble",), data["gamble"], states, wealth, {})

    schedules: dict[str, PaymentSchedule] = {}
    if "schedule" in data:
        if "schedule" not in tree.labeled:
            _fail(tree, ("schedule",), 'schedules need a name: schedule "A" { ... }')
        for name, block in data["schedule"].items():
            path = ("schedule", name)
            _check_keys(tree, path, block, {"pay"}, f"schedule {name!r}")
            pay = _need(tree, path, block, "pay", f"schedule {name!r}")
            if not isinstance(pay, list) or not pay:
                _fail(tree, path + ("pay",), "pay must show a nonempty list of payments")
            payments = []
            for i, entry in enumerate(pay):
                epath = path + ("pay", i)
                if not isinstance(entry, dict):
                    _fail(tree, epath, "each payment is a block {amount = ..., t = ...}")
                _check_keys(tree, epath, entry, {"amount", "t", "state"}, "payment")
                amount = _need(tree, epath, entry, "amount", "payment")
                amount = _number(tree, epath + ("amount",), amount, "amount")
                t = _number(tree, epath + ("t",), _need(tree, epath, entry, "t", "payment"), "t")
                state = entry.get("state")
                if state is not None and not isinstance(state, str):
                    _fail(tree, epath + ("state",), "state must be a label string")
                payments.append(_make(tree, epath, DatedPayment, amount, t, state))
            schedules[name] = PaymentSchedule(tuple(payments), label=name)

    scan_shifts = None
    scan_pair = None
    if "scan" in data:
        block = _block(tree, ("scan",), data["scan"], {"shifts", "a", "b"}, "scan")
        shifts = _need(tree, ("scan",), block, "shifts", "scan")
        scan_shifts = _numbers(tree, ("scan", "shifts"), shifts, "shifts", nonempty=True)
        for i, shift in enumerate(scan_shifts):
            if not shift >= 0:
                _fail(tree, ("scan", "shifts", i), f"shifts must be nonnegative, got {shift!r}")
        names = list(schedules)
        a = block.get("a", names[0] if len(names) >= 1 else None)
        b = block.get("b", names[1] if len(names) >= 2 else None)
        for side, val in (("a", a), ("b", b)):
            if not isinstance(val, str) or val not in schedules:
                _fail(tree, ("scan",), f"scan side {side!r} needs an existing schedule name")
        scan_pair = (a, b)

    accepted: list[Gamble] = []
    rejected: list[Gamble] = []
    has_assessments = "assessments" in data
    if has_assessments:
        allowed = {"accepted", "rejected", "wealth"}
        block = _block(tree, ("assessments",), data["assessments"], allowed, "assessments")
        aw = wealth
        if "wealth" in block:
            aw = _number(tree, ("assessments", "wealth"), block["wealth"], "wealth")
        _need(tree, ("assessments",), block, "accepted", "assessments")
        for side, gambles in (("accepted", accepted), ("rejected", rejected)):
            entries = block.get(side, [])
            if not isinstance(entries, list):
                _fail(tree, ("assessments", side), f"{side} must be a list")
            gambles.extend(
                _build_gamble(tree, ("assessments", side, i), entry, states, aw, named_gambles)
                for i, entry in enumerate(entries)
            )

    return Scenario(
        utility=utility,
        discount=discount,
        states=states,
        schedules=schedules,
        scan_shifts=scan_shifts,
        scan_pair=scan_pair,
        assessments_accepted=accepted,
        assessments_rejected=rejected,
        has_assessments=has_assessments,
        wealth=wealth,
    )
