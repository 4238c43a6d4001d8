"""Certification of neutrality from W-block window aggregates.

Decides, from finitely many block sums of a positive signal, whether the
underlying configuration is neutral (constant), non-neutral, or unresolvable,
with exact integer identifiability certificates and noise-tolerant thresholds.
"""
