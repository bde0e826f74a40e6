"""A strict, dependency-free loader for the YAML subset experiment files use.

The repository is deliberately stdlib-only, but experiment configs read much
better as YAML than JSON.  This module parses the small YAML subset those
files actually need — nested mappings by two-space-style indentation, block
lists (``- item``), inline ``[a, b]`` lists and ``{k: v}`` mappings, comments,
and JSON-compatible scalars (ints, floats, booleans, ``null``, quoted and
bare strings) — with precise line-numbered errors for everything outside it.

:func:`load_config` always parses ``.yaml`` / ``.yml`` files with this
parser, whether or not PyYAML is installed, so a spec means the same thing
on every machine; JSON files are loaded with :mod:`json`.  Both produce
plain dicts/lists/scalars, so downstream ``from_spec`` validation is
identical.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.exceptions import SpecError


class YamlishError(SpecError):
    """A config file falls outside the supported YAML subset."""


def _parse_scalar(text: str, line_no: int) -> object:
    """One scalar token: JSON-ish literals first, bare strings as fallback."""
    text = text.strip()
    if text in ("null", "~", ""):
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if (text.startswith('"') and text.endswith('"') and len(text) >= 2) or \
            (text.startswith("'") and text.endswith("'") and len(text) >= 2):
        if text[0] == "'":
            return text[1:-1].replace("''", "'")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise YamlishError(
                f"line {line_no}: malformed quoted string {text}") from None
    if text.startswith("[") or text.startswith("{"):
        return _parse_inline(text, line_no)
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    for forbidden in (":", "#"):
        if forbidden in text:
            raise YamlishError(
                f"line {line_no}: ambiguous scalar {text!r} (quote strings "
                f"containing {forbidden!r})")
    return text


def _split_inline(text: str, line_no: int) -> List[str]:
    """Split flow-collection content on top-level commas (quotes/nesting
    respected)."""
    items: List[str] = []
    depth = 0
    quote: Optional[str] = None
    start = 0
    for index, char in enumerate(text):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
            if depth < 0:
                raise YamlishError(
                    f"line {line_no}: malformed inline collection "
                    f"(unbalanced {char!r})")
        elif char == "," and depth == 0:
            items.append(text[start:index].strip())
            start = index + 1
    if depth != 0 or quote is not None:
        raise YamlishError(
            f"line {line_no}: malformed inline collection {text!r}")
    items.append(text[start:].strip())
    return items


def _parse_inline(text: str, line_no: int) -> object:
    """One flow collection: ``[a, b]`` or ``{k: v}`` with YAML scalars.

    JSON-compatible documents take the :mod:`json` fast path; the fallback
    splits on top-level commas so unquoted scalars (``[nvdla, shidiannao]``)
    parse the way PyYAML parses them.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(item, line_no)
                for item in _split_inline(inner, line_no)]
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1].strip()
        if not inner:
            return {}
        result = {}
        for item in _split_inline(inner, line_no):
            key_text, sep, value_text = item.partition(": ")
            if not sep:
                if not item.endswith(":"):
                    raise YamlishError(
                        f"line {line_no}: expected 'key: value' inside "
                        f"{text!r} (got {item!r})")
                key_text, value_text = item[:-1], ""
            key = _parse_scalar(key_text.strip(), line_no)
            if not isinstance(key, str):
                raise YamlishError(
                    f"line {line_no}: inline mapping keys must be strings "
                    f"(got {key_text.strip()!r})")
            if key in result:
                raise YamlishError(f"line {line_no}: duplicate key {key!r}")
            result[key] = (_parse_scalar(value_text.strip(), line_no)
                           if value_text.strip() else None)
        return result
    raise YamlishError(
        f"line {line_no}: malformed inline collection {text!r}")


def _strip_comment(line: str) -> str:
    """Drop a trailing ``#`` comment (respecting quoted strings)."""
    quote: Optional[str] = None
    for index, char in enumerate(line):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char == "#" and (index == 0 or line[index - 1] in (" ", "\t")):
            return line[:index]
    return line


def _splits_as_mapping(text: str) -> bool:
    """Whether ``text`` opens a mapping entry (YAML's ``": "`` rule).

    A colon needs a following space (or end of line) to separate a key, so
    bare scalars like ``die:1@0.002`` stay scalars — exactly as PyYAML
    treats them.  Quoted/inline openers are never mapping keys here.
    """
    if text.startswith(("[", "{", "'", '"')):
        return False
    return ": " in text or text.endswith(":")


def _logical_lines(text: str) -> List[Tuple[int, int, str]]:
    """Non-blank lines as ``(line_no, indent, content)`` triples."""
    lines: List[Tuple[int, int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise YamlishError(
                f"line {line_no}: tabs are not allowed in indentation")
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append((line_no, indent, stripped.strip()))
    return lines


def _parse_block(lines: List[Tuple[int, int, str]], start: int,
                 indent: int) -> Tuple[object, int]:
    """Parse one block (mapping or list) at exactly ``indent`` columns.

    Returns the parsed value and the index of the first unconsumed line.
    """
    line_no, first_indent, content = lines[start]
    is_list = content == "-" or content.startswith("- ")
    result: object = [] if is_list else {}
    index = start
    while index < len(lines):
        line_no, line_indent, content = lines[index]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise YamlishError(
                f"line {line_no}: unexpected indentation (expected "
                f"{indent} spaces, got {line_indent})")
        if is_list != (content == "-" or content.startswith("- ")):
            raise YamlishError(
                f"line {line_no}: cannot mix list items and mapping keys "
                f"at one indentation level")
        if is_list:
            item_text = content[1:].strip()
            if not item_text:
                # "-" alone introduces a nested block on the next lines.
                if (index + 1 < len(lines)
                        and lines[index + 1][1] > indent):
                    value, index = _parse_block(lines, index + 1,
                                                lines[index + 1][1])
                else:
                    value = None
                    index += 1
            elif _splits_as_mapping(item_text):
                # "- key: value": the item is a mapping whose keys sit two
                # columns in (where the key starts after the dash).
                lines[index] = (line_no, indent + 2, item_text)
                value, index = _parse_block(lines, index, indent + 2)
            else:
                value = _parse_scalar(item_text, line_no)
                index += 1
            result.append(value)
            continue
        if not _splits_as_mapping(content):
            raise YamlishError(
                f"line {line_no}: expected 'key: value' (got {content!r})")
        key, _, rest = (content.partition(": ") if ": " in content
                        else (content[:-1], ":", ""))
        if not key.strip() or key.strip().startswith(("[", "{", "'", '"')):
            raise YamlishError(
                f"line {line_no}: expected 'key: value' (got {content!r})")
        key = key.strip()
        if key in result:
            raise YamlishError(f"line {line_no}: duplicate key {key!r}")
        rest = rest.strip()
        if rest:
            result[key] = _parse_scalar(rest, line_no)
            index += 1
        elif index + 1 < len(lines) and lines[index + 1][1] > indent:
            result[key], index = _parse_block(lines, index + 1,
                                              lines[index + 1][1])
        else:
            result[key] = None
            index += 1
    return result, index


def parse_yamlish(text: str) -> object:
    """Parse the supported YAML subset into plain Python values."""
    lines = _logical_lines(text)
    if not lines:
        return {}
    first_no, first_indent, _ = lines[0]
    if first_indent != 0:
        raise YamlishError(
            f"line {first_no}: the document must start at column zero")
    value, index = _parse_block(lines, 0, 0)
    if index != len(lines):
        line_no = lines[index][0]
        raise YamlishError(f"line {line_no}: trailing content outside the "
                           f"top-level block")
    return value


def load_config(path: str) -> object:
    """Load a ``.json`` / ``.yaml`` / ``.yml`` experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise SpecError(f"cannot read experiment file {path!r}: "
                        f"{error.strerror or error}") from None
    if path.endswith(".json"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"{path}: malformed JSON ({error})") from None
    return parse_yamlish(text)
