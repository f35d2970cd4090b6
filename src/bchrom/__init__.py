"""b-chromatic numbers, b-colorings and dominance vectors for graphs of
stability two and for tree-cographs.

The API is the submodules (``bchrom.graph``, ``bchrom.route``,
``bchrom.cli`` and the rest); importing ``bchrom`` itself loads none of
them."""
