"""No command does more work than ``tests/work_budget.json`` records.

A change that lowers a count rewrites the file (``PYTHONPATH=src:tests python -m work_counts >
tests/work_budget.json``) and names the change; one that raises a count must say why it is worth it.
"""

import json
from pathlib import Path

from work_counts import work_counts

BUDGET = Path(__file__).with_name("work_budget.json")


def test_no_command_does_more_work_than_its_budget():
    budget = json.loads(BUDGET.read_text(encoding="utf-8"))
    counts = work_counts()
    assert {command: sorted(row) for command, row in counts.items()} == {
        command: sorted(row) for command, row in budget.items()
    }
    over = [f"{command} {name}: {count} > {budget[command][name]}"
            for command, row in counts.items() for name, count in row.items() if count > budget[command][name]]
    assert not over, "; ".join(over)
