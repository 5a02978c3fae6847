package ip

// SetRecycle switches returning released packets to the pool and returns a
// function restoring the previous setting.
func SetRecycle(on bool) (restore func()) {
	prev := recycle
	recycle = on
	return func() { recycle = prev }
}
