"""The repository's benchmark of record (see README.md in this directory)."""
