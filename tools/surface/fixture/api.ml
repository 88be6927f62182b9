let used x = x + 1
let via_alias = 2
let unused x = x - 1
