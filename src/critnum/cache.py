"""Append-only JSON-lines result cache keyed by (group, operation, parameters)."""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

try:
    import fcntl
except ImportError:  # non-POSIX: advisory locking degrades to a no-op
    fcntl = None

ENV_VAR = "CRITNUM_CACHE"
DEFAULT_PATH = "./critnum-cache.jsonl"


def params_hash(params: dict) -> str:
    # imported here: hashlib loads OpenSSL, which commands that never touch
    # the cache should not pay for in memory
    import hashlib

    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResultCache:
    """JSON-lines store; a hit replays the original record byte-identically."""

    def __init__(self, path: Optional[str] = None):
        self.path = Path(path if path is not None else os.environ.get(ENV_VAR, DEFAULT_PATH))

    @contextmanager
    def lock(self):
        """Advisory exclusive lock so one command at a time owns the store."""
        if fcntl is None:
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _iter_lines(self):
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    print(
                        f"warning: skipping corrupt cache line {lineno} in {self.path}",
                        file=sys.stderr,
                    )

    def get(self, group_name: str, operation: str, params: dict) -> Optional[dict]:
        """First stored record for the key, or None on a miss."""
        want = params_hash(params)
        for entry in self._iter_lines():
            if (
                entry.get("group") == group_name
                and entry.get("operation") == operation
                and entry.get("params_hash") == want
            ):
                record = entry.get("record")
                if isinstance(record, dict):
                    return record
        return None

    def put(self, group_name: str, operation: str, params: dict, record: dict) -> dict:
        entry = {
            "group": group_name,
            "operation": operation,
            "params_hash": params_hash(params),
            "params": params,
            "record": record,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
        return record
