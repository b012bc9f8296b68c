"""Scenario configuration: sectioned key-value text with line-aware errors.

Format, one directive per line:

    # comment (also allowed after a value)
    [section.name]
    key = value

Values stay strings until a typed getter pulls them; every complaint a
getter raises carries the line number the offending value came from, so
a bad `duration_s = ten` points at its own line rather than at the
loader.  Unknown keys are rejected when the scenario is assembled,
catching typos like `druation_s` early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ConfigError",
    "RawConfig",
    "parse_config",
    "load_config",
]


class ConfigError(ValueError):
    """Malformed configuration; .line is 1-based, 0 for file-level faults."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


_REQUIRED = object()
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def _parse_bool(value: str) -> bool:
    if value.lower() not in _BOOLS:
        raise ValueError(value)
    return _BOOLS[value.lower()]


def _pick(value: str, choices) -> str:
    if value not in choices:
        raise ValueError(value)
    return value


@dataclass
class RawConfig:
    """Parsed key-value store: (section, key) -> (value, line)."""

    entries: dict[tuple[str, str], tuple[str, int]] = field(default_factory=dict)
    sections: dict[str, int] = field(default_factory=dict)
    source: str = "<config>"

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.entries

    def _get(self, section: str, key: str, default, convert, expects: str):
        """convert(value) of the key, or default when it is absent; a
        missing required key or a value convert rejects with ValueError
        raises ConfigError."""
        if (section, key) not in self.entries:
            if default is not _REQUIRED:
                return default
            where = self.sections.get(section)
            if where is None:
                raise ConfigError(f"missing section [{section}] (for key '{key}')")
            raise ConfigError(f"missing key '{key}' in section [{section}]", where)
        value, line = self.entries[(section, key)]
        try:
            return convert(value)
        except ValueError:
            raise ConfigError(f"'{key}' {expects}, got {value!r}", line) from None

    def get_str(self, section: str, key: str, default=_REQUIRED) -> str:
        return self._get(section, key, default, str, "expects a string")

    def get_float(self, section: str, key: str, default=_REQUIRED) -> float:
        return self._get(section, key, default, float, "expects a number")

    def get_int(self, section: str, key: str, default=_REQUIRED) -> int:
        return self._get(section, key, default, int, "expects an integer")

    def get_floats(self, section: str, key: str, default=_REQUIRED) -> tuple:
        """Comma-separated list of numbers."""
        return self._get(section, key, default,
                         lambda v: tuple(float(tok) for tok in v.split(",")),
                         "expects comma-separated numbers")

    def get_bool(self, section: str, key: str, default=_REQUIRED) -> bool:
        return self._get(section, key, default, _parse_bool, "expects a boolean")

    def get_choice(self, section: str, key: str, choices, default=_REQUIRED) -> str:
        return self._get(section, key, default, lambda v: _pick(v, choices),
                         f"must be one of {sorted(choices)}")

    def line_of(self, section: str, key: str) -> int:
        return self.entries[(section, key)][1]

    def check_known(self, known: dict[str, set[str]]) -> None:
        """Reject unknown sections and keys (typo guard)."""
        for name, line in self.sections.items():
            if name not in known:
                raise ConfigError(f"unknown section [{name}]", line)
        for (section, key), (_v, line) in self.entries.items():
            if key not in known[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]", line
                )


def parse_config(text: str, source: str = "<config>") -> RawConfig:
    raw = RawConfig(source=source)
    section = None
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {full_line.strip()!r}", lineno)
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section name", lineno)
            if section in raw.sections:
                raise ConfigError(f"duplicate section [{section}]", lineno)
            raw.sections[section] = lineno
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected 'key = value' or '[section]', got {full_line.strip()!r}",
                lineno,
            )
        if section is None:
            raise ConfigError("key-value pair before any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if not value:
            raise ConfigError(f"empty value for key '{key}'", lineno)
        if (section, key) in raw.entries:
            raise ConfigError(
                f"duplicate key '{key}' in section [{section}]", lineno
            )
        raw.entries[(section, key)] = (value, lineno)
    return raw


def load_config(path) -> RawConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, source=str(path))
