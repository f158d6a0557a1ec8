"""FastBench: the end-to-end, layer-split benchmark of the simulator.

``python3 fastbench/run.py --workload NAME --seed N --seconds S --trace
0|1`` runs one workload as a closed loop of fresh worker processes and
prints every metric with its unit; see ``fastbench/README.md``.
"""
