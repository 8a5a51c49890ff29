class ArrayGeometry:
    rows = columns = 64
