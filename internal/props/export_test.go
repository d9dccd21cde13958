package props

// NumSlots is the number of atoms in the catalog's table.
const NumSlots = numSlots
