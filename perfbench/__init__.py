"""Repository benchmark: workloads, outside-in layer ledger, checks."""
