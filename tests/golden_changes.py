"""What regenerating a golden file changes, printed before the file is written.

``python tests/test_golden.py`` and ``python tests/test_sweep.py`` call
``print_changes`` with the recorded and the new outputs, so a regeneration
states how many cases moved under each output key and by how much.
"""

from __future__ import annotations


def _deviations(old, new):
    """Yield |new - old| for each changed number in two JSON trees, None for any other change."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from _deviations(old[key], new[key])
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            yield from _deviations(a, b)
    elif old != new:
        numbers = all(type(x) in (int, float) for x in (old, new))
        yield abs(new - old) if numbers else None


def print_changes(triples) -> None:
    """Print, per output key, how many cases changed and the largest absolute deviation.

    ``triples`` yields ``(key, old, new)`` once per case and key; ``old`` is None
    for a case the recorded file does not have.
    """
    stats: dict[str, list] = {}  # key -> [cases, changed, largest deviation, other changes]
    for key, old, new in triples:
        entry = stats.setdefault(key, [0, 0, 0.0, False])
        entry[0] += 1
        devs = list(_deviations(old, new))
        if devs:
            entry[1] += 1
            entry[2] = max([entry[2], *(d for d in devs if d is not None)])
            entry[3] = entry[3] or None in devs
    for key, (cases, changed, largest, other) in stats.items():
        line = f"{key}: {changed} of {cases} changed"
        if changed:
            line += f", largest deviation {largest:.3g}"
            line += " (and non-numeric changes)" if other else ""
        print(line)
