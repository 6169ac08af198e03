"""Known-bad fixture: STO202 mutating a value read from a namespace."""

from repro.core.statestore import StateStore

store = StateStore()
peers = store.namespace("peers")


def bad_append():
    entry = peers.get("r1")
    entry.append("route")  # lint-expect: STO202


def bad_setitem():
    row = peers["r2"]
    row["metric"] = 1  # lint-expect: STO202


def bad_augassign():
    counters = peers.get("counters")
    counters += [1]  # lint-expect: STO202


def bad_loop_values():
    for row in peers.values():
        row.append("route")  # lint-expect: STO202


def bad_loop_items():
    for key, row in peers.items():
        row["metric"] = 1  # lint-expect: STO202


def bad_append_in_loop():
    entry = peers.get("r1")
    for i in range(3):
        entry.append(i)  # lint-expect: STO202


def good_replace():
    # negative control: build a replacement and store it back
    entry = peers.get("r1", ())
    peers.set("r1", entry + ("route",))


def good_rebound():
    # negative control: the name is re-bound to fresh data first
    entry = peers.get("r1")
    entry = list(range(3))
    entry.append(4)
