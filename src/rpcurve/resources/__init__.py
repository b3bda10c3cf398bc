"""Bundled data: the 2005 indicator snapshot, its schema, and the published
reference results (``reference_2005.json``)."""

REFERENCE_NAME = "elmap-reference"  # the published scores' column name
