"""Scenario configuration: sectioned key-value text with line-aware errors.

Format, one directive per line:

    # comment (also allowed after a value)
    [section.name]
    key = value

Values stay strings until a typed getter pulls them.  A getter carries
the key's default and, optionally, its rule; every complaint it raises
carries the source and the line number the offending value came from, so
a bad `duration_s = ten` points at its own line rather than at the
loader.  The getters are the schema: each notes the (section, key) it
asks for, present or not, and once the scenario is assembled
`reject_unasked` fails on the first section or key that no getter asked
for, so a typo like `druation_s`, or a key the section's chosen kind does
not read, is named on its line instead of being silently ignored.
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
    """Malformed configuration; .line is 1-based, 0 for file-level faults.
    The message starts with "<source>, line N: " where those are known."""

    def __init__(self, message: str, line: int = 0, source: str = ""):
        where = ", ".join(p for p in (source, f"line {line}" if line else "") if p)
        super().__init__(f"{where}: {message}" if where else message)
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
    source: str = ""  # file name for messages; empty for in-memory text
    asked: set[tuple[str, str]] = field(default_factory=set)  # by the getters

    def error(self, message: str, line: int = 0) -> ConfigError:
        return ConfigError(message, line, self.source)

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.entries

    def _get(self, section: str, key: str, default, convert, expects: str, check=None):
        """convert(value) of the key, or default (unchecked) when it is absent.
        A missing required key, a value convert rejects with ValueError, or
        one failing check = (predicate, message) raises ConfigError; the
        message may be a function of the value."""
        self.asked.add((section, key))
        if (section, key) not in self.entries:
            if default is not _REQUIRED:
                return default
            where = self.sections.get(section)
            if where is None:
                raise self.error(f"missing section [{section}] (for key '{key}')")
            raise self.error(f"missing key '{key}' in section [{section}]", where)
        value, line = self.entries[(section, key)]
        try:
            result = convert(value)
        except ValueError:
            raise self.error(f"'{key}' {expects}, got {value!r}", line) from None
        if check is not None and not check[0](result):
            message = check[1] if isinstance(check[1], str) else check[1](result)
            raise self.error(f"'{key}' {message}", line)
        return result

    def get_str(self, section: str, key: str, default=_REQUIRED) -> str:
        return self._get(section, key, default, str, "expects a string")

    def get_float(self, section: str, key: str, default=_REQUIRED, check=None) -> float:
        return self._get(section, key, default, float, "expects a number", check)

    def get_int(self, section: str, key: str, default=_REQUIRED, check=None) -> int:
        return self._get(section, key, default, int, "expects an integer", check)

    def get_floats(self, section: str, key: str, default=_REQUIRED, check=None) -> tuple:
        """Comma-separated list of numbers."""
        return self._get(section, key, default,
                         lambda v: tuple(float(tok) for tok in v.split(",")),
                         "expects comma-separated numbers", check)

    def get_bool(self, section: str, key: str, default=_REQUIRED) -> bool:
        return self._get(section, key, default, _parse_bool, "expects a boolean")

    def get_choice(self, section: str, key: str, choices, default=_REQUIRED) -> str:
        return self._get(section, key, default, lambda v: _pick(v, choices),
                         f"must be one of {sorted(choices)}")

    def line_of(self, section: str, key: str) -> int:
        return self.entries[(section, key)][1]

    def reject_unasked(self) -> None:
        """Reject the first section, then the first key, that no getter asked for."""
        asked_sections = {section for section, _key in self.asked}
        for name, line in self.sections.items():
            if name not in asked_sections:
                raise self.error(f"unknown section [{name}]", line)
        for (section, key), (_v, line) in self.entries.items():
            if (section, key) not in self.asked:
                raise self.error(f"unknown key '{key}' in section [{section}]", line)


def parse_config(text: str, source: str = "") -> RawConfig:
    raw = RawConfig(source=source)
    section = None
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise raw.error(f"malformed section header {full_line.strip()!r}", lineno)
            section = line[1:-1].strip()
            if not section:
                raise raw.error("empty section name", lineno)
            if section in raw.sections:
                raise raw.error(f"duplicate section [{section}]", lineno)
            raw.sections[section] = lineno
            continue
        if "=" not in line:
            raise raw.error(
                f"expected 'key = value' or '[section]', got {full_line.strip()!r}", lineno)
        if section is None:
            raise raw.error("key-value pair before any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise raw.error("empty key", lineno)
        if not value:
            raise raw.error(f"empty value for key '{key}'", lineno)
        if (section, key) in raw.entries:
            raise raw.error(f"duplicate key '{key}' in section [{section}]", lineno)
        raw.entries[(section, key)] = (value, lineno)
    return raw


def load_config(path) -> RawConfig:
    """parse_config of a file; a byte that is not UTF-8 raises ConfigError
    on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text ({exc.reason})",
                          data.count(b"\n", 0, exc.start) + 1, str(path)) from None
    return parse_config(text, source=str(path))
