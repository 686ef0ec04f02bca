"""Git for the tools: a command run in this checkout, and a revision
checked out beside it for the tools that compare the two
(trace_digest.py --against, bench_pairs.py --parent).

Imported by the tools, which run from the repository root, e.g.

    python3 tools/trace_digest.py --against HEAD~1
"""

from __future__ import annotations

import contextlib
import shutil
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    """git's stripped output, run in this checkout; raises CalledProcessError."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def checkout(rev: str):
    """Yield (commit id, directory) of REV checked out by `git worktree add --detach`.

    The directory is made under a new temporary one; both are removed, and
    the worktree pruned, at exit. Raises CalledProcessError when git cannot
    resolve or check out REV.
    """
    full = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="moprox-rev-"))
    path = tmp / "checkout"
    try:
        git("worktree", "add", "--detach", str(path), full)
        yield full, path
    finally:
        if path.exists():
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
