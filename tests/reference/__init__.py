"""Reference implementations the tests compare the program against.

Nothing here is imported by ``src/``: each module is the slow, obviously
right version of something the program does array-at-a-time.
"""
