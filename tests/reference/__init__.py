"""Reference implementations the tests compare the program against.

Nothing here is imported by ``src/``.  Most modules are the slow, obviously
right version of something the program does array-at-a-time.  Two are the
paper's own index structures, kept as comparators: ``btree`` (the temporal
B-tree of §3.2.1, which the program replaces with the slot arithmetic of
``repro.core.slots``) and ``rtree`` (the spatial R-tree, which the program
replaces with the vector pass of ``repro.network.locator``).
"""
