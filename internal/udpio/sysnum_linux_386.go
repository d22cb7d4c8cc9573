package udpio

// Package syscall lists no SYS_SENDMMSG for linux/386.
const (
	sysRecvmmsg = 337
	sysSendmmsg = 345
)
