"""Canonical file formats (JSON, UTF-8, bit-exact round trip).

* pentaform: {"quintuples": [[player, situation, decision_node, action,
  successor], ...]} sorted by (situation, decision_node, action).
* game: pentaform keys + "stakeholders" + "utilities" (endnode → profile).
* strategy: flat object, situation → action.
* values: flat object, subroot → profile.
* system: classes with template/exits, model section, initial class.
* stationary strategy: {"classes": {class → {situation → action}}}.

Each JSON object with fixed keys has one key table below (`_GAME`,
`_SYSTEM`, ...), and every loader checks its objects through `_fields`: a
missing key, a value of another JSON type and any key the table does not
hold fail the load, naming the file, the path to the object and the key.
A `.pentaform` load also reads a `.game` file's quintuples.  Flat maps (a
strategy, a value file, a profile) have data keys and are checked against
the form or the stakeholders instead.  A key written twice in one object
fails every load.

Numbers (profile entries and β) are strings in one grammar: an optional
'-' then digits with an optional decimal fraction, 'p/q' in digits, or
'inf'/'-inf', each integer at most 4,300 digits (`numbers.parse_scalar`).
Anything else fails the load with the file, the field and the text named.
Each load parses each distinct number text once, however often the file
repeats it, and a game keeps the profiles as parsed (`Game._parsed`).
Saving always emits the canonical form, so load(save(x)) == x and
save(load(text)) == text for canonical inputs.  A number the grammar
cannot hold (more than 4,300 digits) raises ValueError instead of being
written, and every save writes through `_write`, so a file that cannot be
written raises FileFormatError naming it.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping

from .core import Pentaform, Quintuple, validate
from .game import Game
from .numbers import format_scalar, parse_scalar
from .stationary import (
    AbsoluteTerminal,
    DiscountedAccumulation,
    Exit,
    PieceClass,
    StationarySystem,
)


class FileFormatError(ValueError):
    """A file failed to parse or did not match its schema."""


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def _read(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=partial(_unique_keys, path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _unique_keys(path, pairs: list) -> dict:
    """A decoded JSON object; a key written twice in it raises FileFormatError
    (`json` would keep the last copy)."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise FileFormatError(f"{path}: key {key!r} is repeated in one object")
    return data


def _write(path, text: str) -> None:
    """Write a file's text; an OSError becomes FileFormatError naming the path."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _expect(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise FileFormatError(f"{where}: {msg}")


def _checked(where, make, *args):
    """make(*args), with a ValueError it raises reported against `where`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


# -- the keys of each JSON object a file holds ------------------------------------
#
# Each table maps every key of one object kind to the JSON type of its value:
# str, list, dict (an object), or [str] for a list of strings.

_PENTAFORM = {"quintuples": list}
_GAME = {"quintuples": list, "stakeholders": [str], "utilities": dict}
_SYSTEM = {"classes": dict, "initial": str, "model": dict, "stakeholders": [str]}
_CLASS = {"template": list, "exits": dict}
_EXITS = ({"terminal": dict}, {"class": str, "reward": dict})
_MODELS = {"discounted": {"kind": str, "beta": str}, "absolute-terminal": {"kind": str, "cycles": list}}
_CYCLE = {"classes": [str], "utility": dict}
_STATIONARY_STRATEGY = {"classes": dict}
_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _fields(data, where, *tables: dict) -> dict:
    """data, checked against the table that shares the most keys with it
    (the first on a tie): a JSON object with no other key, every key of the
    table, and each value of its type.  Anything else raises FileFormatError."""
    _expect(isinstance(data, dict), where, "expected an object")
    table = max(tables, key=lambda t: len(data.keys() & t.keys()))
    unknown = sorted(data.keys() - table.keys())
    if unknown:
        raise FileFormatError(f"{where}: unknown key {unknown[0]!r}")
    for key, kind in table.items():
        _expect(key in data, where, f'missing "{key}"')
        if kind == [str]:
            _expect(isinstance(data[key], list) and all(isinstance(x, str) for x in data[key]),
                    where, f'"{key}" must be a list of strings')
        else:
            _expect(isinstance(data[key], kind), where, f'"{key}" must be {_TYPE_NAMES[kind]}')
    return data


# -- quintuples and pentaforms ---------------------------------------------------


def _quintuples_payload(p) -> Iterable[Quintuple]:
    """A form's quintuples as it holds them, canonical and each once; any
    other iterable of quintuples sorted and rid of repeats."""
    if isinstance(p, Pentaform):
        return p.quintuples
    return sorted(set(p), key=Quintuple.key)


def _parse_quintuples(data: list, where: str) -> list[Quintuple]:
    # one pass over the whole list; only when it fails does the loop look for the bad entry to name
    if not (set(map(type, data)) <= {list} and set(map(len, data)) <= {5}
            and set(map(type, chain.from_iterable(data))) <= {str}):
        for idx, entry in enumerate(data):
            spot = f"{where}[{idx}]"
            _expect(isinstance(entry, list) and len(entry) == 5, spot, "expected a 5-element list")
            _expect(all(isinstance(x, str) for x in entry), spot, "all five components must be strings")
    return list(map(tuple.__new__, repeat(Quintuple), data))


def dumps_pentaform(p) -> str:
    return _dumps({"quintuples": _quintuples_payload(p)})


def save_pentaform(path, p) -> None:
    _write(path, dumps_pentaform(p))


def load_quintuples(path) -> list[Quintuple]:
    """Raw quintuples, unvalidated (cmd_validate reports every axiom itself),
    of a `.pentaform` file or of a `.game` file."""
    data = _fields(_read(path), path, _PENTAFORM, _GAME)
    return _parse_quintuples(data["quintuples"], f"{path}: quintuples")


def load_pentaform(path) -> Pentaform:
    return validate(load_quintuples(path))


# -- profiles ---------------------------------------------------------------------


def _profile_payload(profile: Mapping) -> dict:
    return {k: format_scalar(v) for k, v in sorted(profile.items())}


def _parse_profile(data, where: str, numbers: dict) -> dict:
    """A profile object's numbers; `numbers` keeps each text the load has
    parsed, with its value."""
    _expect(isinstance(data, dict), where, "expected an object of stakeholder -> number")
    out = {}
    for k, v in data.items():
        if not isinstance(v, str):
            raise FileFormatError(f"{where}.{k}: numbers are written as strings")
        x = numbers.get(v)
        if x is None:
            x = numbers[v] = _checked(f"{where}.{k}", parse_scalar, v)
        out[k] = x
    return out


# -- games --------------------------------------------------------------------------


def dumps_game(g: Game) -> str:
    return _dumps({
        "quintuples": _quintuples_payload(g.form),
        "stakeholders": sorted(g.stakeholders),
        "utilities": {y: _profile_payload(p) for y, p in sorted(g.utilities.items())},
    })


def save_game(path, g: Game) -> None:
    _write(path, dumps_game(g))


def load_game(path) -> Game:
    data = _fields(_read(path), path, _GAME)
    form = validate(_parse_quintuples(data["quintuples"], f"{path}: quintuples"))
    numbers: dict = {}
    utilities = {y: _parse_profile(prof, f"{path}: utilities.{y}", numbers)
                 for y, prof in data["utilities"].items()}
    return _checked(path, Game._parsed, form, data["stakeholders"], utilities)


# -- strategies and value functions ----------------------------------------------------


def dumps_strategy(s: Mapping[str, str]) -> str:
    return _dumps({j: a for j, a in sorted(s.items())})


def save_strategy(path, s) -> None:
    _write(path, dumps_strategy(s))


def load_strategy(path) -> dict:
    data = _read(path)
    _expect(isinstance(data, dict), path, "expected an object mapping situation -> action")
    _expect(all(isinstance(v, str) for v in data.values()), path, "actions must be strings")
    return dict(data)


def dumps_values(values: Mapping[str, Mapping]) -> str:
    return _dumps({t: _profile_payload(p) for t, p in sorted(values.items())})


def save_values(path, values) -> None:
    _write(path, dumps_values(values))


def load_values(path) -> dict:
    data = _read(path)
    _expect(isinstance(data, dict), path, "expected an object mapping subroot -> profile")
    numbers: dict = {}
    return {t: _parse_profile(p, f"{path}: {t}", numbers) for t, p in data.items()}


# -- stationary systems -------------------------------------------------------------------


def dumps_system(sys: StationarySystem) -> str:
    classes = {}
    for cid, cls in sorted(sys.classes.items()):
        exits = {}
        for label, e in sorted(cls.exits.items()):
            if e.is_terminal:
                exits[label] = {"terminal": _profile_payload(e.reward)}
            else:
                exits[label] = {"class": e.next_class, "reward": _profile_payload(e.reward)}
        classes[cid] = {"template": _quintuples_payload(cls.template), "exits": exits}
    if isinstance(sys.model, DiscountedAccumulation):
        model = {"kind": "discounted", "beta": format_scalar(sys.model.beta)}
    else:
        model = {"kind": "absolute-terminal", "cycles": [
            {"classes": list(cyc), "utility": _profile_payload(prof)}
            for cyc, prof in sorted(sys.model.cycle_utilities.items())
        ]}
    return _dumps({
        "classes": classes,
        "initial": sys.initial,
        "model": model,
        "stakeholders": sorted(sys.stakeholders),
    })


def save_system(path, sys: StationarySystem) -> None:
    _write(path, dumps_system(sys))


def load_system(path) -> StationarySystem:
    data = _fields(_read(path), path, _SYSTEM)
    numbers: dict = {}
    classes = {}
    for cid, spec in data["classes"].items():
        spot = f"{path}: classes.{cid}"
        _fields(spec, spot, _CLASS)
        template = _checked(f"{spot}.template", validate, _parse_quintuples(spec["template"], f"{spot}.template"))
        exits = {}
        for label, entry in spec["exits"].items():
            espot = f"{spot}.exits.{label}"
            _fields(entry, espot, *_EXITS)
            reward = _parse_profile(entry["terminal"] if "terminal" in entry else entry["reward"], espot, numbers)
            exits[label] = Exit(reward, next_class=entry.get("class"))
        classes[cid] = PieceClass(template, exits)

    mspec, mspot = data["model"], f"{path}: model"
    kind = mspec.get("kind")
    _expect("kind" in mspec, mspot, 'missing "kind"')
    _expect(isinstance(kind, str) and kind in _MODELS, path, f"unknown model kind {kind!r}")
    _fields(mspec, mspot, _MODELS[kind])
    if kind == "discounted":
        model = DiscountedAccumulation(_checked(f"{mspot}.beta", parse_scalar, mspec["beta"]))
    else:
        cycles = {}
        for idx, entry in enumerate(mspec["cycles"]):
            cspot = f"{mspot}.cycles[{idx}]"
            cycle = tuple(_fields(entry, cspot, _CYCLE)["classes"])
            _expect(cycle not in cycles, cspot, f"cycle {list(cycle)} is declared twice")
            cycles[cycle] = _parse_profile(entry["utility"], cspot, numbers)
        model = AbsoluteTerminal(cycles)

    return _checked(path, StationarySystem, classes, data["initial"], model, data["stakeholders"])


def dumps_stationary_strategy(sigma: Mapping[str, Mapping[str, str]]) -> str:
    return _dumps({"classes": {c: {j: a for j, a in sorted(m.items())}
                               for c, m in sorted(sigma.items())}})


def save_stationary_strategy(path, sigma) -> None:
    _write(path, dumps_stationary_strategy(sigma))


def load_stationary_strategy(path) -> dict:
    data = _fields(_read(path), path, _STATIONARY_STRATEGY)
    out = {}
    for c, m in data["classes"].items():
        _expect(isinstance(m, dict) and all(isinstance(v, str) for v in m.values()),
                f"{path}: classes.{c}", "expected an object of situation -> action")
        out[c] = dict(m)
    return out
