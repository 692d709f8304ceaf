module sqlshare/bench

go 1.22

require sqlshare v0.0.0

replace sqlshare => ../
