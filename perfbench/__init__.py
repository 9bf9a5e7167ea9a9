"""Benchmark for hrsym: seeded workloads, a correctness gate and outside-in tracing.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload <paper|operators|flows|exact> \
        --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
