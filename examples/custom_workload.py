#!/usr/bin/env python
"""Define a custom benchmark and measure it with the full pipeline.

This is what a downstream user does to ask "how would *my* workload fare
on a pipelined-cache design?": describe the workload's statistics (mix,
code size, working set, locality), synthesize a calibrated program, trace
it, and run it through the delay-slot scheduler, the cache simulator, and
the epsilon analysis.

Run:  python examples/custom_workload.py
"""

from repro.core import CpiModel, SuiteMeasurement, SystemConfig
from repro.sched import TranslationFile, analyze_load_slack
from repro.sched.branch_schedule import fill_statistics, schedule_ctis
from repro.trace import execute_program
from repro.workload import BenchmarkSpec, Category, MemoryShape, SynthesisShape, synthesize_program

# A transaction-processing-style workload: branchy integer code with a
# modest instruction footprint and a large, poorly-localized data set.
OLTP = BenchmarkSpec(
    name="oltp",
    description="Synthetic transaction processing",
    category=Category.INTEGER,
    instructions_millions=100.0,
    load_pct=24.0,
    store_pct=12.0,
    branch_pct=18.0,
    syscalls=2000,
    shape=SynthesisShape(
        static_code_kw=40.0,
        procedures=120,
        loop_body_mean=2.0,
        cold_body_mean=2.0,
        backward_bias=0.80,
    ),
    memory=MemoryShape(
        working_set_kw=256.0,
        global_frac=0.20,
        stack_frac=0.25,
        stream_frac=0.05,
        reuse_skew=1.8,  # cooler head: index lookups, little reuse
    ),
)


def main() -> None:
    program = synthesize_program(OLTP)
    trace = execute_program(program, 200_000)
    mix = trace.mix_percentages()
    print(f"synthesized {program.static_instruction_count / 1024:.1f} KW of code")
    print(
        f"traced mix: {mix['load_pct']:.1f}% loads, {mix['store_pct']:.1f}% "
        f"stores, {mix['branch_pct']:.1f}% CTIs "
        f"(spec: {OLTP.load_pct}/{OLTP.store_pct}/{OLTP.branch_pct})"
    )

    # Delay-slot behaviour of this code (Section 3.1 analysis).
    translation = TranslationFile(trace.compiled, slots=2)
    fills = fill_statistics(schedule_ctis(trace.compiled, 2), slots=2)
    print(
        f"two-slot schedule: {translation.expansion_pct:.1f}% code growth, "
        f"{100 * fills['first_slot_filled']:.0f}% of first slots filled "
        f"from before the CTI"
    )

    # Load-use slack (Section 3.2 analysis).
    slack = analyze_load_slack(trace.compiled, trace.block_counts)
    print(
        f"load slack: {100 * slack.fraction_at_least('dynamic', 3):.0f}% of "
        f"loads have dynamic epsilon >= 3; static scheduling leaves "
        f"{slack.delay_cycles_per_load('static', 2):.2f} delay cycles/load "
        f"at l=2"
    )

    # Full-system CPI for this workload alone.
    measurement = SuiteMeasurement(specs=[OLTP], total_instructions=200_000)
    model = CpiModel(measurement)
    for size in (4, 16):
        config = SystemConfig(
            icache_kw=size, dcache_kw=size, branch_slots=2, load_slots=2, penalty=10
        )
        breakdown = model.breakdown(config)
        print(
            f"S={size:>2} KW/side: CPI {breakdown.total:.2f} "
            f"(I {breakdown.icache:.2f}, D {breakdown.dcache:.2f}, "
            f"branch {breakdown.branch:.2f}, load {breakdown.load:.2f})"
        )


if __name__ == "__main__":
    main()
