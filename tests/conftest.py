import sys
from pathlib import Path

# Make the sibling helper module (lputil) importable from any test.
sys.path.insert(0, str(Path(__file__).parent))

# Filled by test_acceptance; printed at the end of the run.
ACCEPTANCE_RESULTS = []

#: pytest cache key of the acceptance summary (a JSON list, one object per
#: criterion); read it with `config.cache.get` or from
#: `.pytest_cache/v/egc128/acceptance`.
ACCEPTANCE_CACHE_KEY = "egc128/acceptance"


def pytest_terminal_summary(terminalreporter, config):
    if not ACCEPTANCE_RESULTS:
        return
    rows = sorted(ACCEPTANCE_RESULTS)
    terminalreporter.section("acceptance criteria")
    for num, name, ok, seconds, detail in rows:
        status = "PASS" if ok else "FAIL"
        line = f"criterion {num:2d} [{status}] {name} ({seconds:.1f}s)"
        if detail:
            line += f" :: {detail}"
        terminalreporter.write_line(line)
    # Absent when the cache plugin is disabled (-p no:cacheprovider).
    if getattr(config, "cache", None) is not None:
        config.cache.set(ACCEPTANCE_CACHE_KEY, [
            {"criterion": num, "name": name, "passed": ok, "seconds": seconds, "detail": detail}
            for num, name, ok, seconds, detail in rows])
