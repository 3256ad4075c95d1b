"""Clean fixture: contract-conforming MR code that must produce zero
findings.

Exercises the patterns the rules must *not* flag: enclosing-scope
closure state (the ``map_setup`` idiom), sorted set iteration — also
when ``sorted()`` consumes a comprehension over the set —, seeded RNG,
a monotonic timer used for instrumentation (directly and through a
helper), insertion-ordered dict iteration, composite keys, and a job
constructed with function references.
"""

import random
import time

LIMIT = 16  # module constant: read-only access is fine


def _elapsed_since(started):
    return time.perf_counter() - started  # clean: monotonic, no epoch


def make_mapper(seed):
    state = {}

    def map_setup(ctx):
        state["rng"] = random.Random(seed)  # clean: seeded, per-task
        state["started"] = time.perf_counter()  # clean: monotonic timer

    def mapper(line, ctx):
        tokens = sorted(set(line.split()))  # clean: sorted before iteration
        state["last"] = tokens  # clean: enclosing-function state, not module
        for token in tokens[:LIMIT]:
            ctx.emit((token, len(tokens)), line)

    def map_teardown(ctx):
        state["busy_s"] = _elapsed_since(state["started"])  # clean: same, one call away

    return map_setup, mapper, map_teardown


def stem_mapper(line, ctx):
    seen = set(line.split())
    # clean: sorted() consumes the comprehension, set order cannot leak
    for stem in sorted(token[:LIMIT] for token in seen):
        ctx.emit((stem, len(seen)), line)


def reducer(key, values, ctx):
    by_rid = {}
    for value in values:
        by_rid.setdefault(value[0], []).append(value)
    for rid, group in by_rid.items():  # clean: dicts iterate in insertion order
        ctx.emit((key, rid), len(group))


def build_job(records_file, seed):
    map_setup, mapper, map_teardown = make_mapper(seed)
    return dict(
        name="clean",
        inputs=[records_file],
        mapper=mapper,
        reducer=reducer,
        map_setup=map_setup,
        map_teardown=map_teardown,
    )
