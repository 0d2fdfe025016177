module github.com/paper-repo/staccato-go/bench

go 1.24

require github.com/paper-repo/staccato-go v0.0.0

replace github.com/paper-repo/staccato-go => ../
