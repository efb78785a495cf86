import urllib.request

import pytest

from gesselwalks.oeis import CACHE_ENV


@pytest.fixture
def bfile_cache(tmp_path, monkeypatch):
    """A b-file cache directory with no network behind it: b-files placed
    there are what `oeis --fetch` reads."""

    def offline(url, timeout):
        raise AssertionError(f"fetched {url}")

    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(urllib.request, "urlopen", offline)
    return tmp_path


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, name, ok, detail in RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance {num:02d}] {name}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
