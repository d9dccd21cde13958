package props

// NumSlots is the number of View memo slots the shared atoms occupy.
const NumSlots = numSlots
