module sqlxnf/bench

go 1.24.0

require sqlxnf v0.0.0

replace sqlxnf => ../
