"""Shared pytest plumbing: the acceptance tests register one summary line each,
printed after the run so they survive output capture. When $GITHUB_STEP_SUMMARY
names a file (as on a GitHub Actions runner), the lines are appended to it too,
so each CI run page shows them.

Hypothesis loads the settings profile named by $HYPOTHESIS_PROFILE. The `ci`
profile derandomizes the search, so a run is reproducible, and prints the blob
that replays a failing example."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, ok: bool, detail: str) -> None:
    _ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
        step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if step_summary:
            with open(step_summary, "a", encoding="utf-8") as fh:
                fh.write("### acceptance criteria\n\n```\n")
                fh.writelines(f"{line}\n" for line in _ACCEPTANCE_LINES)
                fh.write("```\n")
