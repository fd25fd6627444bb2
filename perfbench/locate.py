"""Find the checkout's `src/egc128` and import it from there.

The benchmark runs from the root of a source checkout and measures the
package in that checkout's `src/`, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stream files, LP files and span dumps; removed or
#: overwritten on every run and listed in the root .gitignore.
WORK = ROOT / ".perfbench"


def require_package() -> None:
    """Put the checkout's `src/` first on sys.path and import egc128.

    Exits with code 2 when the checkout holds no package, or when the
    import resolves somewhere else.
    """
    if not (SRC / "egc128" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'egc128'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import egc128

    if Path(egc128.__file__).resolve().parent != (SRC / "egc128").resolve():
        sys.exit(f"perfbench: egc128 imported from {egc128.__file__}, not from {SRC}")
