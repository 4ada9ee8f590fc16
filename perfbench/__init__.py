"""The repository benchmark: three workloads run through ``repro``'s public API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; ``--workload
all`` runs every workload, untraced and traced.  See ``README.md`` in this
directory for the workloads, the metrics and what each layer should move.
"""
