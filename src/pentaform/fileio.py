"""Canonical file formats (JSON, UTF-8, bit-exact round trip).

* pentaform: {"quintuples": [[player, situation, decision_node, action,
  successor], ...]} sorted by (situation, decision_node, action).
* game: pentaform keys + "stakeholders" + "utilities" (endnode → profile).
* strategy: flat object, situation → action.
* values: flat object, subroot → profile.
* system: classes with template/exits, model section, initial class.
* stationary strategy: {"classes": {class → {situation → action}}}.

Numbers (profile entries and β) are strings in one grammar: an optional
'-' then digits with an optional decimal fraction, 'p/q' in digits, or
'inf'/'-inf', each integer at most 4,300 digits (`numbers.parse_scalar`).
Anything else fails the load with the file, the field and the text named.
Each load parses each distinct number text once, however often the file
repeats it.
Saving always emits the canonical form, so load(save(x)) == x and
save(load(text)) == text for canonical inputs.
"""

from __future__ import annotations

import json
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
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _write(path, text: str) -> None:
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


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# -- quintuples and pentaforms ---------------------------------------------------


def _quintuples_payload(p) -> Iterable[Quintuple]:
    """A form's quintuples as it holds them, canonical and each once; any
    other iterable of quintuples sorted and rid of repeats."""
    if isinstance(p, Pentaform):
        return p.quintuples
    return sorted(set(p), key=Quintuple.key)


def _parse_quintuples(data, where: str) -> list[Quintuple]:
    _expect(isinstance(data, list), where, "expected a list of quintuples")
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
    Path(path).write_text(dumps_pentaform(p), encoding="utf-8")


def load_quintuples(path) -> list[Quintuple]:
    """Raw quintuples, unvalidated (cmd_validate reports every axiom itself)."""
    data = _read(path)
    _expect(isinstance(data, dict) and "quintuples" in data, str(path),
            'expected a top-level object with a "quintuples" list')
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
    Path(path).write_text(dumps_game(g), encoding="utf-8")


def load_game(path) -> Game:
    data = _read(path)
    where = str(path)
    _expect(isinstance(data, dict), where, "expected a top-level object")
    for key in ("quintuples", "stakeholders", "utilities"):
        _expect(key in data, where, f'missing "{key}"')
    form = validate(_parse_quintuples(data["quintuples"], f"{where}: quintuples"))
    stakeholders = data["stakeholders"]
    _expect(_is_string_list(stakeholders), where, '"stakeholders" must be a list of strings')
    _expect(isinstance(data["utilities"], dict), where, '"utilities" must be an object')
    numbers: dict = {}
    utilities = {y: _parse_profile(prof, f"{where}: utilities.{y}", numbers)
                 for y, prof in data["utilities"].items()}
    return _checked(where, Game, form, stakeholders, utilities)


# -- strategies and value functions ----------------------------------------------------


def dumps_strategy(s: Mapping[str, str]) -> str:
    return _dumps({j: a for j, a in sorted(s.items())})


def save_strategy(path, s) -> None:
    Path(path).write_text(dumps_strategy(s), encoding="utf-8")


def load_strategy(path) -> dict:
    data = _read(path)
    where = str(path)
    _expect(isinstance(data, dict), where, "expected an object mapping situation -> action")
    _expect(all(isinstance(v, str) for v in data.values()), where, "actions must be strings")
    return dict(data)


def dumps_values(values: Mapping[str, Mapping]) -> str:
    return _dumps({t: _profile_payload(p) for t, p in sorted(values.items())})


def save_values(path, values) -> None:
    Path(path).write_text(dumps_values(values), encoding="utf-8")


def load_values(path) -> dict:
    data = _read(path)
    where = str(path)
    _expect(isinstance(data, dict), where, "expected an object mapping subroot -> profile")
    numbers: dict = {}
    return {t: _parse_profile(p, f"{where}: {t}", numbers) for t, p in data.items()}


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
    Path(path).write_text(dumps_system(sys), encoding="utf-8")


def load_system(path) -> StationarySystem:
    data = _read(path)
    where = str(path)
    _expect(isinstance(data, dict), where, "expected a top-level object")
    for key in ("classes", "initial", "model", "stakeholders"):
        _expect(key in data, where, f'missing "{key}"')
    _expect(isinstance(data["classes"], dict), where, '"classes" must be an object')
    _expect(isinstance(data["initial"], str), where, '"initial" must be a class id string')
    _expect(_is_string_list(data["stakeholders"]), where, '"stakeholders" must be a list of strings')

    numbers: dict = {}
    classes = {}
    for cid, spec in data["classes"].items():
        spot = f"{where}: classes.{cid}"
        _expect(isinstance(spec, dict) and "template" in spec and "exits" in spec,
                spot, 'expected "template" and "exits"')
        template = _checked(f"{spot}.template", validate, _parse_quintuples(spec["template"], f"{spot}.template"))
        exits = {}
        _expect(isinstance(spec["exits"], dict), spot, '"exits" must be an object')
        for label, entry in spec["exits"].items():
            espot = f"{spot}.exits.{label}"
            _expect(isinstance(entry, dict), espot, "expected an object")
            if "terminal" in entry:
                exits[label] = Exit(_parse_profile(entry["terminal"], espot, numbers))
            else:
                _expect("class" in entry and "reward" in entry, espot,
                        'expected "terminal" or "class"+"reward"')
                _expect(isinstance(entry["class"], str), espot, '"class" must be a class id string')
                exits[label] = Exit(_parse_profile(entry["reward"], espot, numbers),
                                    next_class=entry["class"])
        classes[cid] = PieceClass(template, exits)

    mspec = data["model"]
    _expect(isinstance(mspec, dict) and "kind" in mspec, where, '"model" needs a "kind"')
    if mspec["kind"] == "discounted":
        _expect(isinstance(mspec.get("beta"), str), where,
                'discounted model needs "beta" written as a string')
        model = DiscountedAccumulation(_checked(f"{where}: model.beta", parse_scalar, mspec["beta"]))
    elif mspec["kind"] == "absolute-terminal":
        _expect(isinstance(mspec.get("cycles"), list), where, 'absolute-terminal model needs "cycles"')
        cycles = {}
        for idx, entry in enumerate(mspec["cycles"]):
            cspot = f"{where}: model.cycles[{idx}]"
            _expect(isinstance(entry, dict) and "classes" in entry and "utility" in entry,
                    cspot, 'expected "classes" and "utility"')
            _expect(_is_string_list(entry["classes"]), cspot, '"classes" must be a list of class ids')
            cycles[tuple(entry["classes"])] = _parse_profile(entry["utility"], cspot, numbers)
        model = AbsoluteTerminal(cycles)
    else:
        raise FileFormatError(f'{where}: unknown model kind {mspec["kind"]!r}')

    return _checked(where, StationarySystem, classes, data["initial"], model, data["stakeholders"])


def dumps_stationary_strategy(sigma: Mapping[str, Mapping[str, str]]) -> str:
    return _dumps({"classes": {c: {j: a for j, a in sorted(m.items())}
                               for c, m in sorted(sigma.items())}})


def save_stationary_strategy(path, sigma) -> None:
    Path(path).write_text(dumps_stationary_strategy(sigma), encoding="utf-8")


def load_stationary_strategy(path) -> dict:
    data = _read(path)
    where = str(path)
    _expect(isinstance(data, dict) and "classes" in data, where,
            'expected a top-level object with "classes"')
    _expect(isinstance(data["classes"], dict), where, '"classes" must be an object')
    out = {}
    for c, m in data["classes"].items():
        _expect(isinstance(m, dict) and all(isinstance(v, str) for v in m.values()),
                f"{where}: classes.{c}", "expected an object of situation -> action")
        out[c] = dict(m)
    return out
