"""Generated registry of known counter/metric names.

Regenerate with ``python -m repro lint src/ --write-counter-registry``
after adding a counter; CI asserts this file matches the source tree
(``--check-registry``), so a typo'd counter name at an increment site
shows up as a registry diff a reviewer sees.  Do not edit by hand.
"""

from __future__ import annotations

KNOWN_COUNTER_NAMES: frozenset[str] = frozenset(
    {
        'fault.injected',
        'framework.combine_input_records',
        'framework.combine_output_records',
        'framework.map_input_records',
        'framework.map_output_bytes',
        'framework.map_output_records',
        'framework.reduce_input_groups',
        'framework.reduce_input_records',
        'framework.reduce_output_records',
        'framework.shuffle_bytes',
        'memory.peak_bytes',
        'memory.replans',
        'reduce.group_records',
        'resume.stages_skipped',
        'sanitize.checks',
        'sanitize.index_bytes_drift',
        'sanitize.misowned_pair',
        'sanitize.unsorted_reduce_input',
        'sanitize.violations',
        'shuffle.partition_bytes',
        'stage1.token_frequency',
        'stage2.candidate_pairs',
        'stage2.group_candidates',
        'stage2.group_records',
        'stage2.pairs_output',
        'stage2.prefix_tokens',
        'stage2.pruned_bitmap',
        'stage2.pruned_foreign',
        'stage2.pruned_length',
        'stage2.pruned_positional',
        'stage2.pruned_suffix',
        'stage2.record_routes',
        'stage2.spill_bytes_read',
        'stage2.spill_bytes_written',
        'stage2.verified',
        'stage3.pairs_per_rid',
        'stage3.record_pairs_output',
        'task.attempts',
        'task.lost',
        'task.retries',
    }
)
