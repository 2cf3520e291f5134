"""INI-style run configuration over the types' own defaults.

Grammar: sections [disk], [chain], [gate], [pulses]; values are numbers
with an optional unit suffix (um, rad_s, s), comma-separated lists, or
semicolon-separated "m R" pairs for solve_rows.  _SCHEMA gives each key
its unit, its parser and the field it sets; a key left out keeps the
default of SimConfig, DiskGeometry or GateParams.  Unknown sections or
keys are errors, as is a file with no sections at all.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
import math

from .core import CONSTANTS
from .dynamics import GateParams
from .refdata import L_OVER_R, TABLE1_M40, TABLE1_M50
from .wgm import DiskGeometry


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """One run; its defaults are the design reproduce-tables checks."""

    disk: DiskGeometry = DiskGeometry(radius=3.0, azimuthal_number=40)
    gate: GateParams = GateParams()
    wavelength: float = CONSTANTS.zpl_wavelength
    l_over_r: tuple = L_OVER_R
    # ((m, R), ...) for the thickness table
    solve_rows: tuple = (tuple((40, R) for R in TABLE1_M40)
                         + tuple((50, R) for R in TABLE1_M50))

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise ValueError(f"wavelength: must be > 0, got {self.wavelength}")

    def spacings(self) -> tuple:
        return tuple(x * self.disk.radius for x in self.l_over_r)


def _number(raw: str, unit, where: str) -> float:
    parts = raw.split()
    if len(parts) == 2:
        value, suffix = parts
        if unit is None or suffix != unit:
            raise ConfigError(
                f"{where}: unexpected unit '{suffix}'"
                + (f", expected '{unit}'" if unit else ", value is dimensionless"))
    elif len(parts) == 1:
        value = parts[0]
    else:
        raise ConfigError(f"{where}: cannot parse {raw!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def _integer(raw: str, unit, where: str) -> int:
    number = _number(raw, unit, where)
    if number != int(number):
        raise ConfigError(f"{where}: integer required, got {number}")
    return int(number)


def _text(raw: str, unit, where: str) -> str:
    return raw.strip()


def _entries(raw: str, sep: str) -> list:
    return [entry.strip() for entry in raw.split(sep) if entry.strip()]


def _pairs(raw: str, unit, where: str) -> tuple:
    rows = []
    for chunk in _entries(raw, ";"):
        parts = chunk.split()
        if len(parts) != 2:
            raise ConfigError(
                f"{where}: expected 'm R' pairs separated by ';', "
                f"got {chunk!r}")
        try:
            row = (int(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"{where}: bad pair {chunk!r}") from None
        if not (row[0] >= 1 and math.isfinite(row[1]) and row[1] > 0.0):
            raise ConfigError(f"{where}: need m >= 1 and a finite "
                              f"radius > 0, got {chunk!r}")
        rows.append(row)
    return tuple(rows)


def _ratios(raw: str, unit, where: str) -> tuple:
    l_over_r = []
    for item in _entries(raw, ","):
        try:
            ratio = float(item)
        except ValueError:
            raise ConfigError(f"{where}: bad entry {item!r}") from None
        if not (math.isfinite(ratio) and ratio >= 2.0):
            raise ConfigError(
                f"{where}: entry {item!r} must be a finite "
                "L/R >= 2 (the disks overlap below 2)")
        l_over_r.append(ratio)
    if not l_over_r:
        raise ConfigError(f"{where}: at least one spacing required")
    return tuple(l_over_r)


# section -> key -> (unit suffix, parser, target field).  A parser maps
# (raw text, unit suffix, "[section] key") to the value.  A target
# "disk.<f>" or "gate.<f>" is field f of SimConfig.disk or SimConfig.gate,
# any other a field of SimConfig itself.
_SCHEMA = {
    "disk": {
        "radius": ("um", _number, "disk.radius"),
        "azimuthal_number": (None, _integer, "disk.azimuthal_number"),
        "refractive_index": (None, _number, "disk.refractive_index"),
        "wavelength": ("um", _number, "wavelength"),
        "solve_rows": (None, _pairs, "solve_rows"),
    },
    "chain": {
        "l_over_r": (None, _ratios, "l_over_r"),
    },
    "gate": {
        "g1": ("rad_s", _number, "gate.g1"),
        "g2": ("rad_s", _number, "gate.g2"),
        "delta_max": ("rad_s", _number, "gate.delta_max"),
        "omega_a0": ("rad_s", _number, "gate.omega_a0"),
        "d_g": ("rad_s", _number, "gate.D_g"),
        "epsilon": (None, _number, "gate.epsilon"),
    },
    "pulses": {
        "guard": (None, _text, "gate.guard"),
        "samples": (None, _integer, "gate.samples"),
        "fixed_gap": ("s", _number, "gate.fixed_gap"),
    },
}

# field name -> the "[section] key" that sets it
_KEY_OF = {target.rpartition(".")[2]: f"[{section}] {key}"
           for section, keys in _SCHEMA.items()
           for key, (_, _, target) in keys.items()}


def load_config(path=None) -> SimConfig:
    """SimConfig() with each key of the INI file at `path` applied, as its
    _SCHEMA row parses it; path=None gives SimConfig() itself."""
    if path is None:
        return SimConfig()
    origin = str(path)
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cp.read_file(fh, source=origin)
        except configparser.Error as exc:
            raise ConfigError(f"{origin}: parse error: {exc}") from exc
    if not cp.sections():
        raise ConfigError(f"{origin}: parse error: no sections found "
                          "(expected [disk] / [chain] / [gate] / [pulses])")

    # "disk" / "gate" / "" (SimConfig itself) -> field -> parsed value
    values = {"disk": {}, "gate": {}, "": {}}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{origin}: unknown key '{key}' in [{section}]")
            unit, parse, target = _SCHEMA[section][key]
            part, _, name = target.rpartition(".")
            values[part][name] = parse(raw, unit, f"[{section}] {key}")

    base = SimConfig()
    try:
        return replace(base, disk=replace(base.disk, **values["disk"]),
                       gate=replace(base.gate, **values["gate"]),
                       **values[""])
    except ValueError as exc:
        # every field error starts "<field>: "; name the key that sets it
        name, _, why = str(exc).partition(": ")
        raise ConfigError(f"{_KEY_OF.get(name, name)}: {why}") from exc
