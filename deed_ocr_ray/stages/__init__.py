"""Batch transforms for ``Dataset.map_batches``: plain functions and
callable classes whose instances run as task stages."""
