//go:build linux && !amd64 && !386

package udpio

import "syscall"

const (
	sysRecvmmsg = syscall.SYS_RECVMMSG
	sysSendmmsg = syscall.SYS_SENDMMSG
)
