import pytest


@pytest.fixture
def bfile_cache(tmp_path):
    """A directory for the b-files a test passes to `oeis --bfile`."""
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
