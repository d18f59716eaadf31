"""Importing hjlab pauses the cyclic garbage collector and promotes the
survivors to the oldest generation, and leaves the collector as it found it.

Each case runs in a fresh interpreter, since the package is imported only
once per process and the tests' own process has imported it already.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from conftest import src_env


def run(script: str):
    """The JSON value the script prints as its last line."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=src_env(), check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("enabled", [True, False])
def test_the_import_leaves_the_collector_as_it_was(enabled):
    enabled_after, threshold_kept, frozen = run(f"""
        import gc, json
        if not {enabled}:
            gc.disable()
        threshold = gc.get_threshold()
        import hjlab.cli
        print(json.dumps([gc.isenabled(), gc.get_threshold() == threshold,
                          gc.get_freeze_count()]))
    """)
    assert enabled_after is enabled
    assert threshold_kept
    assert frozen == 0


def test_the_import_keeps_a_hosts_frozen_objects_frozen():
    # Frozen objects still die when their last reference goes, and importing
    # numpy and scipy drops a few of the interpreter's; they are imported
    # before the freeze, so that a change in the count can only come from
    # hjlab releasing the frozen set.
    before, after = run("""
        import gc, json
        import numpy, scipy.linalg, scipy.sparse.linalg, scipy.spatial, yaml
        kept = [[] for _ in range(100)]
        gc.freeze()
        before = gc.get_freeze_count()
        import hjlab.cli
        print(json.dumps([before, gc.get_freeze_count()]))
    """)
    assert before > 0
    assert after == before


def test_no_older_generation_is_scanned_during_the_import():
    passes = run("""
        import gc, json
        passes = [0, 0, 0]
        def count(phase, info):
            if phase == "start":
                passes[info["generation"]] += 1
        gc.callbacks.append(count)
        import hjlab.cli
        print(json.dumps(passes))
    """)
    assert passes[1:] == [0, 0]


def test_a_cycle_made_before_the_import_is_still_reclaimed():
    # gc.collect() first resets the generation counts, so that no automatic
    # pass can reach the cycle before the package pauses the collector
    alive_after_import, reclaimed = run("""
        import gc, json, weakref
        class Node:
            pass
        gc.collect()
        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        import hjlab
        alive = ref() is not None
        gc.collect()
        print(json.dumps([alive, ref() is None]))
    """)
    assert alive_after_import
    assert reclaimed
