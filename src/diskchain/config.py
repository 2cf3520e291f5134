"""INI-style run configuration.

Grammar: sections [disk], [chain], [gate], [pulses]; values are numbers
with an optional unit suffix (um, rad_s, s), comma-separated
lists, or semicolon-separated "m R" pairs for solve_rows.  A key left
out falls back to the embedded default configuration; unknown sections
or keys are errors, as is a file with no sections at all.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
import functools
import math

from .dynamics import GateParams
from .refdata import DEFAULT_CONFIG_TEXT
from .wgm import DiskGeometry


class ConfigError(ValueError):
    pass


# key -> canonical unit suffix (None = dimensionless)
_SCHEMA = {
    "disk": {
        "radius": "um",
        "azimuthal_number": None,
        "refractive_index": None,
        "wavelength": "um",
        "solve_rows": "pairs",
    },
    "chain": {
        "l_over_r": "list",
    },
    "gate": {
        "g1": "rad_s",
        "g2": "rad_s",
        "delta_max": "rad_s",
        "omega_a0": "rad_s",
        "d_g": "rad_s",
        "epsilon": None,
    },
    "pulses": {
        "guard": "str",
        "samples": None,
        "fixed_gap": "s",
    },
}


@dataclass(frozen=True)
class SimConfig:
    disk: DiskGeometry
    gate: GateParams
    wavelength: float
    l_over_r: tuple
    solve_rows: tuple      # ((m, R), ...) for the thickness table

    def spacings(self) -> tuple:
        return tuple(x * self.disk.radius for x in self.l_over_r)


def _number(raw: str, unit, section: str, key: str) -> float:
    parts = raw.split()
    if len(parts) == 2:
        value, suffix = parts
        if unit is None or suffix != unit:
            raise ConfigError(
                f"[{section}] {key}: unexpected unit '{suffix}'"
                + (f", expected '{unit}'" if unit else ", value is dimensionless"))
    elif len(parts) == 1:
        value = parts[0]
    else:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"[{section}] {key}: must be finite, got {value!r}")
    return number


def _parse(text: str, origin: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: parse error: {exc}") from exc
    return cp


@functools.lru_cache(maxsize=None)
def _defaults() -> tuple:
    """The embedded defaults, parsed once: (section, ((key, raw), ...))."""
    base = _parse(DEFAULT_CONFIG_TEXT, "<defaults>")
    return tuple((s, tuple(base.items(s))) for s in base.sections())


def _merged(text, origin: str) -> dict:
    """Section -> key -> raw value: new dicts of the embedded defaults
    overlaid with `text` (None: the defaults alone); `origin` names it."""
    values = {s: dict(items) for s, items in _defaults()}
    if text is None:
        return values

    user = _parse(text, origin)
    if not user.sections():
        raise ConfigError(f"{origin}: parse error: no sections found "
                          "(expected [disk] / [chain] / [gate] / [pulses])")
    for section in user.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        for key, val in user.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{origin}: unknown key '{key}' in [{section}]")
            values[section][key] = val
    return values


def load_config(path=None) -> SimConfig:
    """Build a SimConfig from an INI file, falling back to the embedded
    defaults for anything the file leaves out; path=None loads the
    defaults themselves."""
    text = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _build(_merged(text, str(path)))


def _build(v: dict) -> SimConfig:
    """SimConfig from the merged raw values of _merged, validated."""
    disk_s, chain_s, gate_s, pulse_s = (v["disk"], v["chain"], v["gate"],
                                        v["pulses"])

    def num(section, store, key):
        return _number(store[key], _SCHEMA[section][key], section, key)

    radius = num("disk", disk_s, "radius")
    m = num("disk", disk_s, "azimuthal_number")
    if m != int(m):
        raise ConfigError(f"[disk] azimuthal_number: integer required, got {m}")
    n_c = num("disk", disk_s, "refractive_index")
    wavelength = num("disk", disk_s, "wavelength")
    if wavelength <= 0.0:
        raise ConfigError(f"[disk] wavelength: must be > 0, got {wavelength}")

    rows = []
    for chunk in disk_s["solve_rows"].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 2:
            raise ConfigError(
                f"[disk] solve_rows: expected 'm R' pairs separated by ';', "
                f"got {chunk!r}")
        try:
            row = (int(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"[disk] solve_rows: bad pair {chunk!r}") from None
        if not (row[0] >= 1 and math.isfinite(row[1]) and row[1] > 0.0):
            raise ConfigError(f"[disk] solve_rows: need m >= 1 and a finite "
                              f"radius > 0, got {chunk!r}")
        rows.append(row)

    l_over_r = []
    for item in chain_s["l_over_r"].split(","):
        item = item.strip()
        if item:
            try:
                ratio = float(item)
            except ValueError:
                raise ConfigError(f"[chain] l_over_r: bad entry {item!r}") from None
            if not (math.isfinite(ratio) and ratio >= 2.0):
                raise ConfigError(
                    f"[chain] l_over_r: entry {item!r} must be a finite "
                    "L/R >= 2 (the disks overlap below 2)")
            l_over_r.append(ratio)
    if not l_over_r:
        raise ConfigError("[chain] l_over_r: at least one spacing required")

    guard = pulse_s["guard"].strip()
    samples = num("pulses", pulse_s, "samples")
    if samples != int(samples):
        raise ConfigError(f"[pulses] samples: integer required, got {samples}")
    fixed_gap = (num("pulses", pulse_s, "fixed_gap")
                 if "fixed_gap" in pulse_s else None)

    try:
        disk = DiskGeometry(radius=radius, azimuthal_number=int(m),
                            refractive_index=n_c)
        gate_kwargs = dict(
            g1=num("gate", gate_s, "g1"),
            g2=num("gate", gate_s, "g2"),
            delta_max=num("gate", gate_s, "delta_max"),
            omega_a0=num("gate", gate_s, "omega_a0"),
            epsilon=num("gate", gate_s, "epsilon"),
            guard=guard,
            fixed_gap=fixed_gap,
            samples=int(samples),
        )
        if "d_g" in gate_s:
            gate_kwargs["D_g"] = num("gate", gate_s, "d_g")
        gate = GateParams(**gate_kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        # every field error starts "<field>: "; name the key as the INI does
        field, _, why = str(exc).partition(": ")
        key = field.lower()
        where = next((f"[{s}] {key}" for s in _SCHEMA if key in _SCHEMA[s]),
                     field)
        raise ConfigError(f"{where}: {why}") from exc

    return SimConfig(disk=disk, gate=gate, wavelength=wavelength,
                     l_over_r=tuple(l_over_r), solve_rows=tuple(rows))


def default_config() -> SimConfig:
    return load_config(None)
