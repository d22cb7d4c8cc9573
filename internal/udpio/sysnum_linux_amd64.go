package udpio

// Package syscall lists no SYS_SENDMMSG for linux/amd64.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
