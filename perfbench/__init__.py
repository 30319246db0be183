"""The exactweil benchmark; see README.md."""
