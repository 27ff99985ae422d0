"""The repository's benchmark: meta-training, hot serving and churn.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
