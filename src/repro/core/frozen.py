"""Frozen regression files: one writer and one reader for every replay.

:func:`write_frozen` writes frozen scenarios and crashpoints alike.
``repro campaign replay`` (frozen scenarios) and ``repro chaos replay``
(frozen crashpoints) both expand their targets with
:func:`frozen_paths` and read each file with :func:`load_frozen`, so a
malformed file is one typed :class:`FrozenFileError`, never a
traceback.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from .atomicio import atomic_write_text

__all__ = ["FrozenFileError", "frozen_paths", "load_frozen", "write_frozen"]


class FrozenFileError(ValueError):
    """A replay target or frozen file that cannot be replayed."""


def write_frozen(path: Union[str, Path], doc: Dict[str, Any]) -> Path:
    """Write one frozen file: parent directories first, then one atomic
    write of ``doc`` as sorted, 2-space-indented JSON and a newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(
        path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def frozen_paths(
    targets: Iterable[Union[str, Path]], kind: str
) -> List[Path]:
    """The files behind replay targets: a directory contributes its
    ``*.json`` files in name order, a file itself.  ``kind`` names the
    files in the error raised for a target that is neither."""
    paths: List[Path] = []
    for target in map(Path, targets):
        if target.is_dir():
            paths.extend(sorted(target.glob("*.json")))
        elif target.is_file():
            paths.append(target)
        else:
            raise FrozenFileError(f"no {kind}s at {target}")
    return paths


def load_frozen(
    path: Union[str, Path], kind: str, fields: Dict[str, Any]
) -> Dict[str, Any]:
    """Read one frozen file: a JSON object carrying every field of
    ``fields`` with one of that field's types."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise FrozenFileError(f"cannot load {kind} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise FrozenFileError(f"{path}: not a {kind} (not a JSON object)")
    for name, types in fields.items():
        if name not in doc:
            raise FrozenFileError(f"{path}: not a {kind} (missing {name!r})")
        if not isinstance(doc[name], types):
            raise FrozenFileError(
                f"{path}: not a {kind} ({name!r} is "
                f"{type(doc[name]).__name__})"
            )
    return doc
