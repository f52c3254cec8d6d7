"""Known answers for the drive's queue policies (``repro.disk.queue``).

The worked cylinder-queue example of the disk-scheduling literature
(ODSA, arXiv 1403.0334; "Disk Scheduling: Selection of Algorithm",
arXiv 1210.6447): requests for cylinders 98, 183, 37, 122, 14, 124, 65
and 67 arrive together with the head at cylinder 53. Each policy
serves the whole queue; the service order and the total head movement
in cylinders are the textbook answers.
"""

import random

import pytest

from repro.disk.queue import make_policy

QUEUE = (98, 183, 37, 122, 14, 124, 65, 67)
HEAD = 53


def serve(policy_name, queue=QUEUE, head=HEAD):
    """Serve ``queue`` to the end; (service order, total movement)."""
    policy = make_policy(policy_name)
    pending = list(queue)
    order = []
    movement = 0
    while pending:
        cylinder = pending.pop(policy.select(pending, head))
        movement += abs(cylinder - head)
        head = cylinder
        order.append(cylinder)
    return order, movement


def test_fcfs_serves_in_arrival_order():
    assert serve("fcfs") == (list(QUEUE), 640)


def test_sstf_serves_nearest_first():
    assert serve("sstf") == ([65, 67, 37, 14, 98, 122, 124, 183], 236)


def test_look_sweeps_up_then_reverses_at_the_last_request():
    assert serve("look") == ([65, 67, 98, 122, 124, 183, 37, 14], 299)


def test_look_select_one_reverses_only_for_a_request_behind():
    look = make_policy("look")
    look.select_one(183, HEAD)      # ahead: keep sweeping up
    assert look.select(QUEUE, HEAD) == QUEUE.index(65)
    look.select_one(14, HEAD)       # behind: now sweeping down
    assert look.select(QUEUE, HEAD) == QUEUE.index(37)
    look.select_one(HEAD, HEAD)     # at the head: no reversal
    assert look.select(QUEUE, HEAD) == QUEUE.index(37)


@pytest.mark.parametrize("name", ["fcfs", "sstf", "look"])
def test_select_one_keeps_the_state_select_would(name):
    """``select_one`` (the drive's single-candidate shortcut) leaves the
    policy as ``select((cylinder,), head)`` would, so LOOK's sweep
    direction stays exact; checked along a random walk of selections."""
    rng = random.Random(1)
    shortcut = make_policy(name)
    reference = make_policy(name)
    for _ in range(200):
        cylinder = rng.randrange(200)
        head = rng.randrange(200)
        shortcut.select_one(cylinder, head)
        assert reference.select((cylinder,), head) == 0
        assert getattr(shortcut, "_ascending", None) \
            == getattr(reference, "_ascending", None)
        # The next full selection agrees too.
        queue = [rng.randrange(200) for _ in range(5)]
        assert shortcut.select(queue, head) == reference.select(queue, head)
