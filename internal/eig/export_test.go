package eig

// GeneralizedLanczosRef exports the old loop to the external benchmark,
// which sparsifies through internal/core and so cannot live in this
// package.
var GeneralizedLanczosRef = generalizedLanczosRef
